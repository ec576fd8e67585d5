// Validation of the closed-form performance models (src/analysis) against
// the discrete-event simulator: theory and measurement must agree within
// a modeling tolerance across the parameter space.

#include <gtest/gtest.h>

#include "analysis/models.hpp"
#include "runtime/sessions.hpp"
#include "workload/scenario.hpp"

namespace bacp::analysis {
namespace {

using namespace bacp::literals;
using workload::Protocol;
using workload::Scenario;

constexpr double kRtt = 0.010;      // 5 ms fixed each way
constexpr double kTimeout = 0.011;  // derived: 2*5ms + 1ms

double simulate(Protocol protocol, Seq w, double loss, Seq count = 3000) {
    Scenario s;
    s.protocol = protocol;
    s.w = w;
    s.count = count;
    s.loss = loss;
    s.delay_lo = 5_ms;
    s.delay_hi = 5_ms;  // fixed delay: RTT exactly 10 ms
    s.seed = 91;
    const auto agg = workload::run_replicated(s, 3);
    EXPECT_EQ(agg.completed_runs, 3);
    return agg.mean_throughput;
}

void expect_within(double measured, double predicted, double tolerance) {
    EXPECT_NEAR(measured / predicted, 1.0, tolerance)
        << "measured=" << measured << " predicted=" << predicted;
}

// ---------------------------------------------------------------- algebra --

TEST(Models, RoundTripLossComposition) {
    EXPECT_DOUBLE_EQ(round_trip_loss(0.0, 0.0), 0.0);
    EXPECT_NEAR(round_trip_loss(0.1, 0.1), 0.19, 1e-12);
    EXPECT_NEAR(round_trip_loss(0.5, 0.0), 0.5, 1e-12);
}

TEST(Models, OccupancyReducesToRttWithoutLoss) {
    EXPECT_DOUBLE_EQ(slot_occupancy_seconds(0.01, 0.013, 0, 0), 0.01);
    EXPECT_GT(slot_occupancy_seconds(0.01, 0.013, 0.1, 0.1), 0.01);
}

TEST(Models, CapsCompose) {
    EXPECT_DOUBLE_EQ(reuse_cap(9, 0.1), 90.0);
    EXPECT_DOUBLE_EQ(bottleneck_cap(0.001), 1000.0);
    // Clipping picks whichever cap binds.
    EXPECT_LT(time_constrained_throughput(8, 9, kRtt, kTimeout, 0.1, 0, 0),
              window_throughput(8, kRtt, kTimeout, 0, 0));
    EXPECT_DOUBLE_EQ(time_constrained_throughput(8, 1024, kRtt, kTimeout, 0.1, 0, 0),
                     window_throughput(8, kRtt, kTimeout, 0, 0));
}

// ----------------------------------------------------- theory vs simulator --

TEST(ModelsVsSim, LosslessWindowLawExact) {
    // Without loss the law is thr = w / RTT; the simulator should land
    // within a few percent (ack processing is instantaneous).
    for (const Seq w : {1u, 4u, 16u}) {
        const double predicted = window_throughput(w, kRtt, kTimeout, 0, 0);
        expect_within(simulate(Protocol::BlockAck, w, 0.0), predicted, 0.05);
    }
}

TEST(ModelsVsSim, StopAndWaitMatchesOccupancyLawTightly) {
    // w = 1 removes the window-range coupling: the occupancy law is
    // essentially exact (measured within ~2% across loss rates).
    for (const double loss : {0.02, 0.05, 0.10}) {
        const double predicted = window_throughput(1, kRtt, kTimeout, loss, loss);
        expect_within(simulate(Protocol::AlternatingBit, 1, loss), predicted, 0.05);
    }
}

TEST(ModelsVsSim, RangeWindowProtocolsLandInsideTheEnvelope) {
    // Under loss, range-based windows (ns < na + w) sit between the stall
    // law (floor) and the occupancy law (ceiling).
    for (const double loss : {0.02, 0.05, 0.10}) {
        const double ceiling = window_throughput(16, kRtt, kTimeout, loss, loss);
        const double floor = stall_law_throughput(16, kRtt, kTimeout, loss, loss);
        for (const auto protocol :
             {Protocol::BlockAck, Protocol::SelectiveRepeat, Protocol::BlockAckHoleReuse}) {
            const double measured = simulate(protocol, 16, loss);
            EXPECT_GE(measured, floor) << to_string(protocol) << " loss=" << loss;
            EXPECT_LE(measured, ceiling * 1.05) << to_string(protocol) << " loss=" << loss;
        }
    }
}

TEST(ModelsVsSim, OutOfOrderAcksNeverHurt) {
    // Selective repeat's per-message acks free ackd holes early; under
    // loss it must do at least as well as the in-order-ack block protocol
    // (the throughput cost of in-order acking is the flip side of E4's
    // ack-count savings).
    for (const double loss : {0.05, 0.10}) {
        EXPECT_GE(simulate(Protocol::SelectiveRepeat, 16, loss) * 1.02,
                  simulate(Protocol::BlockAck, 16, loss))
            << "loss=" << loss;
    }
}

TEST(ModelsVsSim, TimeConstrainedCapIsTight) {
    // The N/T cap is exact when it binds (E7 measured 90.3 vs cap 90).
    runtime::EngineConfig cfg;
    cfg.w = 8;
    cfg.count = 1000;
    cfg.data_link = runtime::LinkSpec::lossless(5_ms, 5_ms);
    cfg.ack_link = runtime::LinkSpec::lossless(5_ms, 5_ms);
    runtime::TcSession session(cfg, {.domain = 9, .reuse_interval = 100_ms});
    const auto metrics = session.run();
    ASSERT_TRUE(session.completed());
    const double predicted = time_constrained_throughput(8, 9, kRtt, kTimeout, 0.1, 0, 0);
    expect_within(metrics.throughput_msgs_per_sec(), predicted, 0.03);
}

TEST(ModelsVsSim, GbnFifoInsideTheEnvelopeToo) {
    Scenario s;
    s.protocol = Protocol::GoBackN;
    s.w = 16;
    s.count = 2000;
    s.loss = 0.1;
    s.fifo = true;
    s.delay_lo = 5_ms;
    s.delay_hi = 5_ms;
    s.seed = 92;
    const auto r = workload::run_scenario(s);
    ASSERT_TRUE(r.completed);
    const double measured = r.metrics.throughput_msgs_per_sec();
    EXPECT_GE(measured, stall_law_throughput(16, kRtt, kTimeout, 0.1, 0.1));
    EXPECT_LE(measured, window_throughput(16, kRtt, kTimeout, 0.1, 0.1) * 1.05);
}

}  // namespace
}  // namespace bacp::analysis
