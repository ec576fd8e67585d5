// Negative controls: the realistic-timer safety rules of PROTOCOL.md SS6
// are load-bearing.  Each test disables one rule and demonstrates the
// exact failure it exists to prevent -- the same failures the
// verification harness originally caught during development (DESIGN.md
// SS5).  If one of these tests starts PASSING the "safe" assertion, the
// corresponding positive test has probably lost its teeth.
//
// Also: open-loop arrival-process unit tests for BaSession.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/assert.hpp"
#include "link/reliable_link.hpp"
#include "runtime/sessions.hpp"
#include "sim/simulator.hpp"

namespace bacp {
namespace {

using namespace bacp::literals;

std::vector<std::uint8_t> payload_for(Seq i) {
    const std::string text = "m" + std::to_string(i);
    std::vector<std::uint8_t> p(text.begin(), text.end());
    for (Seq k = 0; k < i % 11; ++k) p.push_back(static_cast<std::uint8_t>(i * 131 + k));
    return p;
}

/// Runs the tight bounded configuration (w = 2, domain 4) under heavy
/// loss across many seeds; returns the number of seeds whose delivery
/// stream was corrupted (wrong payload order / content) or crashed.
int corrupted_runs(bool disable_horizon, bool ungated_resend) {
    int corrupted = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        sim::Simulator sim;
        link::LinkCore::Options controls;
        controls.unsafe_disable_horizon = disable_horizon;
        controls.unsafe_ungated_resend = ungated_resend;
        link::ReliableLink link(sim, {.w = 2, .loss = 0.25, .seed = seed}, controls);
        std::vector<std::vector<std::uint8_t>> got;
        link.set_on_deliver(
            [&](std::span<const std::uint8_t> p) { got.emplace_back(p.begin(), p.end()); });
        bool crashed = false;
        try {
            for (Seq i = 0; i < 150; ++i) link.send(payload_for(i));
            sim.run();
        } catch (const AssertionError&) {
            crashed = true;  // internal sanity check caught the corruption
        }
        bool ok = !crashed && got.size() == 150;
        for (Seq i = 0; ok && i < 150; ++i) ok = got[i] == payload_for(i);
        if (!ok) ++corrupted;
    }
    return corrupted;
}

TEST(NegativeControls, SafeConfigurationNeverCorrupts) {
    EXPECT_EQ(corrupted_runs(false, false), 0);
}

TEST(NegativeControls, DroppingBothRulesCorruptsDeliveries) {
    // Without the hole gate, conservative resends put eventually-acked
    // copies in transit; without the horizon, the window outruns them and
    // the mod-2w reconstruction aliases them into future sequence numbers.
    EXPECT_GT(corrupted_runs(true, true), 0)
        << "the safety rules appear unnecessary -- check the positive tests' teeth";
}

TEST(NegativeControls, UngatedResendAloneIsAlreadyUnsafe) {
    // The horizon rule catches only the ack-arrival race; ungated resends
    // create the dangerous copies in the first place and can outlive the
    // reconstruction window through the receiver-side path as well.
    EXPECT_GT(corrupted_runs(false, true) + corrupted_runs(true, true), 0);
}

// ------------------------------------------------------- open-loop arrivals --

TEST(OpenLoop, FixedArrivalsPaceTheTransfer) {
    runtime::EngineConfig cfg;
    cfg.w = 16;
    cfg.count = 100;
    cfg.data_link = runtime::LinkSpec::lossless(1_ms, 1_ms);
    cfg.ack_link = runtime::LinkSpec::lossless(1_ms, 1_ms);
    cfg.arrival_interval = 10_ms;  // far below capacity
    runtime::UnboundedSession session(cfg);
    const auto metrics = session.run();
    ASSERT_TRUE(session.completed());
    // 100 arrivals at exactly 10 ms spacing: the run lasts ~1 second and
    // the delivered rate matches the offered rate, not the link capacity.
    EXPECT_NEAR(metrics.throughput_msgs_per_sec(), 100.0, 2.0);
    // Sojourn = one RTT-ish transfer latency (no queueing).
    EXPECT_LT(session.latency().delivery.quantile(0.99), 5 * kMillisecond);
}

TEST(OpenLoop, PoissonArrivalsAreDeterministicPerSeed) {
    auto run_once = [] {
        runtime::EngineConfig cfg;
        cfg.w = 8;
        cfg.count = 200;
        cfg.arrival_interval = 2 * kMillisecond;
        cfg.poisson_arrivals = true;
        cfg.seed = 9;
        runtime::UnboundedSession session(cfg);
        return session.run().end_time;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(OpenLoop, OverloadQueuesButStillDeliversEverything) {
    runtime::EngineConfig cfg;
    cfg.w = 4;
    cfg.count = 500;
    cfg.data_link = runtime::LinkSpec::lossless(5_ms, 5_ms);
    cfg.ack_link = runtime::LinkSpec::lossless(5_ms, 5_ms);
    cfg.arrival_interval = 1 * kMillisecond;  // 1000/s offered vs 400/s capacity
    runtime::UnboundedSession session(cfg);
    const auto metrics = session.run();
    ASSERT_TRUE(session.completed());
    EXPECT_EQ(metrics.delivered, 500u);
    // Saturated: delivered rate == capacity, sojourn >> one RTT.
    EXPECT_NEAR(metrics.throughput_msgs_per_sec(), 400.0, 20.0);
    EXPECT_GT(session.latency().delivery.quantile(0.5), 50 * kMillisecond);
}

TEST(OpenLoop, ClosedLoopByDefault) {
    runtime::EngineConfig cfg;
    cfg.w = 8;
    cfg.count = 100;
    runtime::UnboundedSession session(cfg);
    session.run();
    EXPECT_TRUE(session.completed());
}

}  // namespace
}  // namespace bacp
