// Cross-runtime decision parity: the same EndpointDriver logic must make
// the same protocol decisions whether it runs over the discrete-event
// simulator (runtime::Engine) or the real-time runtime (net::NetEngine
// with InprocTransport + ManualClock).  This is the acceptance test for
// the driver extraction: if any timeout discipline, the window pump, or
// the resend rescan forked between the two worlds, the decision streams
// would diverge here.
//
// The scenario is engineered to be world-isomorphic:
//   * fixed propagation delay L on both directions (DES Delay::Fixed vs
//     net ImpairSpec delay_lo == delay_hi), so event times match exactly;
//   * a scripted loss pattern on the data direction (DES Loss::Scripted
//     vs net ImpairSpec::scripted_drops -- same offered-index semantics,
//     no RNG draw), so both worlds drop the same copies;
//   * an eager ack policy, so the receiver-side flush timer never
//     introduces its own firing moments;
//   * L odd and incommensurate with the millisecond timeout margin, so
//     no two differently-caused events share an instant.
//
// For the timer disciplines the decision streams must match including
// timestamps (ManualClock and the simulator both start at 0 and jump to
// exact deadlines).  For the oracle disciplines the *firing moment*
// legitimately differs -- the DES fires at a provable idle point, the net
// runtime after a conservative silence timeout -- so timestamps are
// stripped and the decision sequences (what was resent, what was acked,
// what was delivered, in what order) must match.  OraclePerMessage runs
// with w = 1: for larger windows the DES oracle additionally consults the
// receiver's out-of-order buffer (shared core state no real network has),
// which is exactly the capability gap kHasOracle declares.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ba/engine_core.hpp"
#include "baselines/engine_cores.hpp"
#include "link/sim_endpoint.hpp"
#include "runtime/engine.hpp"
#include "runtime/sessions.hpp"

namespace bacp {
namespace {

using runtime::Decision;
using runtime::DecisionLog;
using runtime::TimeoutMode;

// Odd and not a multiple of the 1 ms derivation margin: event instants
// are small integer combinations a*L + b*ms, and distinct (a, b) pairs
// can only collide at huge coefficients (gcd(L, ms) = 1).
constexpr SimTime kL = 2'500'019;
constexpr Seq kCount = 40;
const std::vector<std::uint64_t> kDrops = {2, 9, 10, 23};

runtime::EngineConfig des_config(TimeoutMode mode, Seq w) {
    runtime::EngineConfig cfg;
    cfg.w = w;
    cfg.count = kCount;
    cfg.timeout_mode = mode;
    cfg.seed = 7;
    cfg.ack_policy = runtime::AckPolicy::eager();
    cfg.data_link.loss_kind = runtime::LinkSpec::Loss::Scripted;
    cfg.data_link.scripted_drops = kDrops;
    cfg.data_link.delay_kind = runtime::LinkSpec::Delay::Fixed;
    cfg.data_link.delay_lo = kL;
    cfg.data_link.delay_hi = kL;
    cfg.ack_link.delay_kind = runtime::LinkSpec::Delay::Fixed;
    cfg.ack_link.delay_lo = kL;
    cfg.ack_link.delay_hi = kL;
    return cfg;
}

net::NetConfig net_config(TimeoutMode mode, Seq w) {
    net::NetConfig cfg;
    cfg.w = w;
    cfg.count = kCount;
    cfg.timeout_mode = mode;
    cfg.seed = 7;
    cfg.ack_policy = runtime::AckPolicy::eager();
    cfg.payload_size = 32;
    cfg.link_lifetime = kL;
    cfg.impair.delay_lo = kL;
    cfg.impair.delay_hi = kL;
    cfg.impair.scripted_drops = kDrops;
    net::ImpairSpec ack_dir;
    ack_dir.delay_lo = kL;
    ack_dir.delay_hi = kL;
    cfg.impair_ack = ack_dir;
    return cfg;
}

bool is_oracle(TimeoutMode mode) {
    return mode == TimeoutMode::OracleSimple || mode == TimeoutMode::OraclePerMessage;
}

void strip_times(std::vector<Decision>& decisions) {
    for (Decision& d : decisions) d.time = 0;
}

/// Readable mismatch context: gtest prints this on EXPECT_EQ failure via
/// the vector printer only as bytes, so keep a formatter at hand.
std::string render(const std::vector<Decision>& decisions) {
    static const char* kKind[] = {"send", "resend", "ack", "dup-ack", "nak", "deliver"};
    std::string out;
    for (const Decision& d : decisions) {
        out += std::to_string(d.time) + " " + d.endpoint + std::string(" ") +
               kKind[static_cast<int>(d.kind)] + " [" + std::to_string(d.lo) + "," +
               std::to_string(d.hi) + "]\n";
    }
    return out;
}

template <typename Core>
void expect_parity(TimeoutMode mode, typename Core::Options options = {}) {
    const Seq w = mode == TimeoutMode::OraclePerMessage ? 1 : 4;

    DecisionLog des_log;
    runtime::Engine<Core> des(des_config(mode, w), options);
    des.set_decision_log(&des_log);
    des.run();
    ASSERT_TRUE(des.completed()) << "DES run did not complete";

    DecisionLog net_sender_log;
    DecisionLog net_receiver_log;
    net::NetEngine<Core> nete(net_config(mode, w), options, net::NetMode::Inproc);
    nete.set_decision_logs(&net_sender_log, &net_receiver_log);
    const net::NetReport report = nete.run();
    ASSERT_TRUE(report.completed) << "net run did not complete";

    // The DES drives both halves through one driver; split its stream by
    // endpoint to match the net runtime's two independent logs.
    std::vector<Decision> des_sender;
    std::vector<Decision> des_receiver;
    for (const Decision& d : des_log.entries) {
        (d.endpoint == 'S' ? des_sender : des_receiver).push_back(d);
    }

    if (is_oracle(mode)) {
        strip_times(des_sender);
        strip_times(des_receiver);
        strip_times(net_sender_log.entries);
        strip_times(net_receiver_log.entries);
    }

    EXPECT_EQ(des_sender, net_sender_log.entries)
        << "sender decisions diverged\nDES:\n"
        << render(des_sender) << "net:\n"
        << render(net_sender_log.entries);
    EXPECT_EQ(des_receiver, net_receiver_log.entries)
        << "receiver decisions diverged\nDES:\n"
        << render(des_receiver) << "net:\n"
        << render(net_receiver_log.entries);

    // Losses really happened (the scenario exercised retransmission) and
    // both worlds agree on how much repair it took.
    EXPECT_GE(des.metrics().data_retx, kDrops.size());
    EXPECT_EQ(des.metrics().data_retx, report.metrics.data_retx);
    EXPECT_EQ(des.metrics().acks_sent, report.metrics.acks_sent);
    EXPECT_EQ(des.metrics().delivered, report.metrics.delivered);

    // The net receiver fires action 5 once per receive batch: arrivals
    // that land together share one ACK frame, though each is still an
    // ack decision above.  Selective repeat acks every arrival alone,
    // and a window of one never lands two arrivals together.
    const std::uint64_t ack_frames = report.transport_rs.datagrams_sent;
    if (Core::kCumulativeAcks && w > 1) {
        EXPECT_LT(ack_frames, report.metrics.acks_sent);
    } else {
        EXPECT_EQ(ack_frames, report.metrics.acks_sent + report.metrics.dup_acks);
    }
}

constexpr TimeoutMode kAllModes[] = {
    TimeoutMode::SimpleTimer,
    TimeoutMode::PerMessageTimer,
    TimeoutMode::OracleSimple,
    TimeoutMode::OraclePerMessage,
};

template <typename Core>
void expect_parity_all_modes(typename Core::Options options = {}) {
    for (const TimeoutMode mode : kAllModes) {
        SCOPED_TRACE(runtime::to_string(mode));
        expect_parity<Core>(mode, options);
    }
}

TEST(DriverParity, BlockAckUnbounded) {
    expect_parity_all_modes<ba::EngineCore<ba::Sender, ba::Receiver>>();
}

TEST(DriverParity, BlockAckBounded) {
    expect_parity_all_modes<ba::EngineCore<ba::BoundedSender, ba::BoundedReceiver>>();
}

TEST(DriverParity, BlockAckHoleReuse) {
    expect_parity_all_modes<ba::EngineCore<ba::HoleReuseSender, ba::Receiver>>();
}

TEST(DriverParity, GoBackN) {
    expect_parity_all_modes<baselines::GbnCore>();
}

TEST(DriverParity, SelectiveRepeat) {
    expect_parity_all_modes<baselines::SrCore>();
}

TEST(DriverParity, TimeConstrained) {
    expect_parity_all_modes<baselines::TcCore>();
}

// ---- duplex composition ------------------------------------------------
//
// NetEndpoint composes two EndpointDrivers (a sender half and a receiver
// half) into one DuplexDriver over one socket.  The pin: that composition
// must change NO one-way decision stream.  Each direction of a duplex
// session, viewed in isolation, must make exactly the decisions the DES
// one-way engine makes for the same scenario -- timestamps included for
// the timer disciplines.
//
// The same pin holds for the DES duplex environment (link::SimDuplex:
// two SimEndpoints over byte channels on one simulator), which runs the
// identical DuplexDriver over virtual time -- so a DES duplex session is
// checked against the DES one-way engine, and against the net duplex
// session by transitivity.
//
// The scenario is lossless fixed-delay: in duplex each pathway carries
// one direction's DATA interleaved with the other's ACKs, so a scripted
// drop index on the shared pathway could never be world-isomorphic to a
// one-way run (the offered-datagram counter sees both flows).  Loss and
// retransmission parity is the one-way tests' job above; this test pins
// composition, so it removes loss and keeps everything else.  Piggyback
// stays OFF: deferral deliberately reshapes the ack stream, which is
// measured by E25, not pinned here.

template <typename Core>
void expect_duplex_parity(TimeoutMode mode, typename Core::Options options = {}) {
    const Seq w = mode == TimeoutMode::OraclePerMessage ? 1 : 4;

    // One-way DES reference: same fixed delays, no loss.
    runtime::EngineConfig des_cfg = des_config(mode, w);
    des_cfg.data_link.loss_kind = runtime::LinkSpec::Loss::None;
    des_cfg.data_link.scripted_drops.clear();
    DecisionLog des_log;
    runtime::Engine<Core> des(des_cfg, options);
    des.set_decision_log(&des_log);
    des.run();
    ASSERT_TRUE(des.completed()) << "DES run did not complete";
    std::vector<Decision> des_sender;
    std::vector<Decision> des_receiver;
    for (const Decision& d : des_log.entries) {
        (d.endpoint == 'S' ? des_sender : des_receiver).push_back(d);
    }

    // Duplex net run: kCount each way over the same lossless links.
    net::NetConfig net_cfg = net_config(mode, w);
    net_cfg.impair.scripted_drops.clear();
    net_cfg.reverse_count = kCount;
    net_cfg.piggyback = false;
    DecisionLog a_log;
    DecisionLog b_log;
    net::NetEngine<Core> nete(net_cfg, options, net::NetMode::Inproc);
    nete.set_decision_logs(&a_log, &b_log);
    const net::NetReport report = nete.run();
    ASSERT_TRUE(report.completed) << "net duplex run did not complete";
    EXPECT_EQ(report.piggybacked, 0u);  // piggyback off: pure composition

    // Duplex DES run: the same session over byte channels, both
    // endpoints on one simulator.
    DecisionLog sim_a_log;
    DecisionLog sim_b_log;
    link::SimDuplex<Core> simd(des_cfg, runtime::DuplexSpec{kCount, false}, options);
    simd.a().set_decision_log(&sim_a_log);
    simd.b().set_decision_log(&sim_b_log);
    ASSERT_TRUE(simd.run()) << "DES duplex run did not complete";
    EXPECT_EQ(simd.piggybacked(), 0u);

    // Each endpoint's log interleaves its sender half ('S', for the
    // direction it originates) with its receiver half ('R', for the
    // direction it sinks); splitting by role recovers the four one-way
    // streams of each runtime.
    const auto split = [](const DecisionLog& log, char role) {
        std::vector<Decision> out;
        for (const Decision& d : log.entries) {
            if (d.endpoint == role) out.push_back(d);
        }
        return out;
    };
    struct Direction {
        const char* name;
        std::vector<Decision> sender;
        std::vector<Decision> receiver;
    };
    Direction dirs[] = {
        {"net forward (A->B)", split(a_log, 'S'), split(b_log, 'R')},
        {"net reverse (B->A)", split(b_log, 'S'), split(a_log, 'R')},
        {"DES forward (A->B)", split(sim_a_log, 'S'), split(sim_b_log, 'R')},
        {"DES reverse (B->A)", split(sim_b_log, 'S'), split(sim_a_log, 'R')},
    };
    for (Direction& dir : dirs) {
        SCOPED_TRACE(dir.name);
        if (is_oracle(mode)) {
            strip_times(dir.sender);
            strip_times(dir.receiver);
        }
        auto want_sender = des_sender;
        auto want_receiver = des_receiver;
        if (is_oracle(mode)) {
            strip_times(want_sender);
            strip_times(want_receiver);
        }
        EXPECT_EQ(want_sender, dir.sender)
            << "duplex sender half diverged from one-way\none-way:\n"
            << render(want_sender) << "duplex:\n"
            << render(dir.sender);
        EXPECT_EQ(want_receiver, dir.receiver)
            << "duplex receiver half diverged from one-way\none-way:\n"
            << render(want_receiver) << "duplex:\n"
            << render(dir.receiver);
    }
}

template <typename Core>
void expect_duplex_parity_all_modes(typename Core::Options options = {}) {
    for (const TimeoutMode mode : kAllModes) {
        SCOPED_TRACE(runtime::to_string(mode));
        expect_duplex_parity<Core>(mode, options);
    }
}

TEST(DriverParity, DuplexCompositionUnbounded) {
    expect_duplex_parity_all_modes<ba::EngineCore<ba::Sender, ba::Receiver>>();
}

TEST(DriverParity, DuplexCompositionBounded) {
    expect_duplex_parity_all_modes<ba::EngineCore<ba::BoundedSender, ba::BoundedReceiver>>();
}

}  // namespace
}  // namespace bacp
