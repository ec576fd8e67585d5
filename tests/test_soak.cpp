// Long-haul soak runs: tens of thousands of messages through every
// session type, with conservation-law cross-checks on the metrics.
// These guard against slow state leaks (maps that never shrink past the
// window), counter drift, and rare-event bugs that short tests miss.

#include <gtest/gtest.h>

#include "link/reliable_link.hpp"
#include "link/sim_endpoint.hpp"
#include "runtime/sessions.hpp"
#include "sim/simulator.hpp"

namespace bacp {
namespace {

using namespace bacp::literals;

/// Metrics bookkeeping identities that must hold for any completed run.
void check_conservation(const sim::Metrics& m, const sim::LatencyHistograms& latency,
                        Seq count) {
    // Everything offered was delivered exactly once.
    EXPECT_EQ(m.delivered, count);
    EXPECT_EQ(m.data_new, count);
    // Receptions = transmissions - channel drops (no other sink).
    EXPECT_EQ(m.data_received, m.data_new + m.data_retx - m.sr_dropped);
    // Every reception is a first arrival, a buffered re-receipt, or a
    // duplicate of an accepted message; never more than arrived.
    EXPECT_LE(m.duplicates + m.delivered, m.data_received);
    // The ack channel carries acks, dup-acks, and NAKs; arrivals on it
    // equal what was sent minus its drops.
    EXPECT_EQ(m.acks_received + m.naks_received,
              m.acks_sent + m.dup_acks + m.naks_sent - m.rs_dropped);
    // The engine's latency sink saw exactly the delivered messages.
    EXPECT_EQ(latency.delivery.count(), count);
}

TEST(Soak, Unbounded50kLossy) {
    runtime::EngineConfig cfg;
    cfg.w = 32;
    cfg.count = 50'000;
    cfg.data_link = runtime::LinkSpec::lossy(0.05);
    cfg.ack_link = runtime::LinkSpec::lossy(0.05);
    cfg.seed = 404;
    runtime::UnboundedSession session(cfg);
    const auto metrics = session.run();
    ASSERT_TRUE(session.completed());
    check_conservation(metrics, session.latency(), 50'000);
}

TEST(Soak, Bounded50kLossyNakAdaptive) {
    runtime::EngineConfig cfg;
    cfg.w = 32;
    cfg.count = 50'000;
    cfg.data_link = runtime::LinkSpec::lossy(0.08);
    cfg.ack_link = runtime::LinkSpec::lossy(0.08);
    cfg.enable_nak = true;
    cfg.adaptive_window = true;
    cfg.seed = 405;
    runtime::BoundedSession session(cfg);
    const auto metrics = session.run();
    ASSERT_TRUE(session.completed());
    check_conservation(metrics, session.latency(), 50'000);
    // The bounded core cycled its residue domain thousands of times.
    EXPECT_EQ(session.sender_core().na_mod(), 50'000 % session.sender_core().domain());
}

TEST(Soak, Duplex20kEachWay) {
    runtime::EngineConfig cfg;
    cfg.w = 16;
    cfg.count = 20'000;
    cfg.data_link = runtime::LinkSpec::lossy(0.03);
    cfg.ack_link = runtime::LinkSpec::lossy(0.03);
    cfg.seed = 406;
    link::SimDuplex<ba::EngineCore<ba::Sender, ba::Receiver>> session(
        cfg, runtime::DuplexSpec{20'000, true});
    ASSERT_TRUE(session.run());
    EXPECT_EQ(session.b().delivered(), 20'000u);
    EXPECT_EQ(session.a().delivered(), 20'000u);
    EXPECT_EQ(session.a().payload_mismatches() + session.b().payload_mismatches(), 0u);
}

TEST(Soak, ReliableLink30kChaos) {
    sim::Simulator sim;
    link::ReliableLink::Config cfg{
        .w = 32, .loss = 0.1, .corrupt_p = 0.02, .delay_lo = 1_ms, .delay_hi = 8_ms,
        .seed = 407};
    cfg.enable_nak = true;
    link::ReliableLink link(sim, cfg);
    Seq delivered = 0;
    Seq next_expected = 0;
    bool in_order = true;
    link.set_on_deliver([&](std::span<const std::uint8_t> p) {
        Seq value = 0;
        for (int b = 0; b < 4; ++b) value |= static_cast<Seq>(p[static_cast<std::size_t>(b)]) << (8 * b);
        in_order = in_order && value == next_expected;
        ++next_expected;
        ++delivered;
    });
    for (Seq i = 0; i < 30'000; ++i) {
        link.send({static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i >> 8),
                   static_cast<std::uint8_t>(i >> 16), static_cast<std::uint8_t>(i >> 24)});
    }
    sim.run();
    EXPECT_EQ(delivered, 30'000u);
    EXPECT_TRUE(in_order);
    EXPECT_TRUE(link.idle());
}

TEST(Soak, OracleMode20k) {
    runtime::EngineConfig cfg;
    cfg.w = 16;
    cfg.count = 20'000;
    cfg.timeout_mode = runtime::TimeoutMode::OraclePerMessage;
    cfg.data_link = runtime::LinkSpec::lossy(0.1);
    cfg.ack_link = runtime::LinkSpec::lossy(0.1);
    cfg.seed = 408;
    runtime::UnboundedSession session(cfg);
    const auto metrics = session.run();
    ASSERT_TRUE(session.completed());
    check_conservation(metrics, session.latency(), 20'000);
}

}  // namespace
}  // namespace bacp
