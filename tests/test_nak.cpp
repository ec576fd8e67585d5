// Tests for the NAK fast-retransmit extension: wire framing, session
// behavior (latency reduction, safety preservation), ReliableLink
// integration, and no-op behavior when disabled.

#include <gtest/gtest.h>

#include "link/reliable_link.hpp"
#include "runtime/sessions.hpp"
#include "sim/simulator.hpp"
#include "wire/codec.hpp"

namespace bacp {
namespace {

using namespace bacp::literals;

// ---------------------------------------------------------------- framing --

TEST(NakWire, RoundTrip) {
    const auto frame = wire::encode_nak(42, wire::kFlagBoundedSeq);
    const auto result = wire::decode(frame);
    ASSERT_TRUE(result.ok());
    const auto& nak = std::get<wire::NakFrame>(result.frame());
    EXPECT_EQ(nak.seq, 42u);
    EXPECT_EQ(nak.flags, wire::kFlagBoundedSeq);
}

TEST(NakWire, MessageRoundTrip) {
    const proto::Message msg = proto::Nak{7};
    const auto frame = wire::encode_message(msg);
    const auto result = wire::decode(frame);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(wire::to_message(result.frame()), msg);
}

TEST(NakWire, EveryBitFlipDetected) {
    const auto frame = wire::encode_nak(9);
    for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
        auto copy = frame;
        copy[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_FALSE(wire::decode(copy).ok()) << bit;
    }
}

TEST(NakMessage, ToString) {
    EXPECT_EQ(proto::to_string(proto::Message{proto::Nak{3}}), "N(3)");
}

// ---------------------------------------------------------------- session --

runtime::EngineConfig lossy_config(Seq w, Seq count, double loss, std::uint64_t seed,
                                    bool nak) {
    runtime::EngineConfig cfg;
    cfg.w = w;
    cfg.count = count;
    cfg.data_link = runtime::LinkSpec::lossy(loss);
    cfg.ack_link = runtime::LinkSpec::lossy(loss);
    cfg.seed = seed;
    cfg.enable_nak = nak;
    return cfg;
}

TEST(NakSession, DisabledMeansNoNakTraffic) {
    runtime::UnboundedSession session(lossy_config(16, 500, 0.1, 5, false));
    const auto metrics = session.run();
    EXPECT_TRUE(session.completed());
    EXPECT_EQ(metrics.naks_sent, 0u);
    EXPECT_EQ(metrics.fast_retx, 0u);
}

TEST(NakSession, EnabledCompletesAndUsesFastRetransmit) {
    runtime::UnboundedSession session(lossy_config(16, 500, 0.1, 5, true));
    const auto metrics = session.run();
    EXPECT_TRUE(session.completed());
    EXPECT_EQ(metrics.delivered, 500u);
    EXPECT_GT(metrics.naks_sent, 0u);
    EXPECT_GT(metrics.fast_retx, 0u);
}

TEST(NakSession, ReducesTailLatencyUnderLoss) {
    runtime::UnboundedSession plain(lossy_config(16, 1000, 0.08, 17, false));
    plain.run();
    runtime::UnboundedSession fast(lossy_config(16, 1000, 0.08, 17, true));
    fast.run();
    ASSERT_TRUE(plain.completed());
    ASSERT_TRUE(fast.completed());
    // A lost message otherwise waits a full conservative timeout; the NAK
    // path recovers it in about one extra round trip.
    EXPECT_LT(fast.latency().delivery.quantile(0.99),
              plain.latency().delivery.quantile(0.99));
}

TEST(NakSession, BoundedSessionSupportsNaks) {
    runtime::EngineConfig cfg = lossy_config(8, 400, 0.1, 23, true);
    runtime::BoundedSession session(cfg);
    const auto metrics = session.run();
    EXPECT_TRUE(session.completed());
    EXPECT_EQ(metrics.delivered, 400u);
    EXPECT_GT(metrics.naks_sent, 0u);
}

TEST(NakSession, InvariantsHoldWithNaksEnabled) {
    // NAK-triggered retransmissions must preserve assertions 6-8 (relaxed
    // channel mode for the per-message-timer configuration).
    auto cfg = lossy_config(8, 300, 0.15, 29, true);
    cfg.check_invariants = true;
    runtime::UnboundedSession session(cfg);
    session.run();  // throws on violation
    EXPECT_TRUE(session.completed());
}

TEST(NakSession, NoLossMeansNoNaksWithFifo) {
    // Without loss AND without reorder nothing ever blocks vr: the
    // threshold is never reached.
    auto cfg = lossy_config(16, 500, 0.0, 31, true);
    cfg.data_link.fifo = true;
    cfg.ack_link.fifo = true;
    runtime::UnboundedSession session(cfg);
    const auto metrics = session.run();
    EXPECT_TRUE(session.completed());
    EXPECT_EQ(metrics.naks_sent, 0u);
}

// ------------------------------------------------------------ reliable link --

TEST(NakLink, CompletesWithFastRetransmit) {
    sim::Simulator sim;
    link::ReliableLink::Config cfg{.w = 8, .loss = 0.15, .seed = 37};
    cfg.enable_nak = true;
    link::ReliableLink link(sim, cfg);
    Seq delivered = 0;
    link.set_on_deliver([&](std::span<const std::uint8_t>) { ++delivered; });
    for (int i = 0; i < 300; ++i) link.send({static_cast<std::uint8_t>(i)});
    sim.run();
    EXPECT_EQ(delivered, 300u);
    EXPECT_TRUE(link.idle());
    EXPECT_GT(link.naks_sent(), 0u);
    EXPECT_GT(link.fast_retransmissions(), 0u);
}

TEST(NakLink, InOrderExactlyOnceUnderChaosWithNaks) {
    sim::Simulator sim;
    link::ReliableLink::Config cfg{
        .w = 8, .loss = 0.2, .corrupt_p = 0.05, .delay_lo = 1_ms, .delay_hi = 9_ms, .seed = 41};
    cfg.enable_nak = true;
    link::ReliableLink link(sim, cfg);
    std::vector<std::uint8_t> order;
    link.set_on_deliver(
        [&](std::span<const std::uint8_t> p) { order.push_back(p.front()); });
    for (int i = 0; i < 200; ++i) link.send({static_cast<std::uint8_t>(i)});
    sim.run();
    ASSERT_EQ(order.size(), 200u);
    for (int i = 0; i < 200; ++i) ASSERT_EQ(order[static_cast<std::size_t>(i)], i % 256);
}

}  // namespace
}  // namespace bacp
