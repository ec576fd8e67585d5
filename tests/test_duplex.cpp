// Tests for the full-duplex DES session (link::SimDuplex: two
// DuplexDriver endpoints over byte channels) with piggybacked
// acknowledgments.

#include <gtest/gtest.h>

#include "ba/engine_core.hpp"
#include "link/sim_endpoint.hpp"
#include "wire/codec.hpp"

namespace bacp::link {
namespace {

using namespace bacp::literals;
using Duplex = SimDuplex<ba::EngineCore<ba::Sender, ba::Receiver>>;
using runtime::AckPolicy;
using runtime::DuplexSpec;
using runtime::EngineConfig;
using runtime::LinkSpec;

/// \p count messages each way over symmetric links.
EngineConfig symmetric(Seq count, double loss, std::uint64_t seed) {
    EngineConfig cfg;
    cfg.w = 8;
    cfg.count = count;
    cfg.data_link = loss > 0 ? LinkSpec::lossy(loss) : LinkSpec::lossless();
    cfg.ack_link = loss > 0 ? LinkSpec::lossy(loss) : LinkSpec::lossless();
    cfg.seed = seed;
    return cfg;
}

DuplexSpec both_ways(Seq count, bool piggyback) { return DuplexSpec{count, piggyback}; }

/// Acks held for 2 ms (batched into bigger blocks): the piggyback
/// ablation holds them in both arms, so it isolates riding from batching.
EngineConfig held(EngineConfig cfg) {
    cfg.ack_policy = AckPolicy::delayed(2_ms);
    return cfg;
}

// ------------------------------------------------------------ wire framing --

TEST(DataAckWire, RoundTrip) {
    const std::vector<std::uint8_t> payload{1, 2, 3};
    const auto frame = wire::encode_data_ack(5, 2, 4, payload, wire::kFlagBoundedSeq);
    const auto result = wire::decode(frame);
    ASSERT_TRUE(result.ok());
    const auto& da = std::get<wire::DataAckFrame>(result.frame());
    EXPECT_EQ(da.seq, 5u);
    EXPECT_EQ(da.ack_lo, 2u);
    EXPECT_EQ(da.ack_hi, 4u);
    EXPECT_EQ(da.payload, payload);
}

TEST(DataAckWire, MessageRoundTrip) {
    const proto::Message msg = proto::DataAck{proto::Data{9}, proto::Ack{1, 3}};
    const auto result = wire::decode(wire::encode_message(msg));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(wire::to_message(result.frame()), msg);
}

TEST(DataAckWire, CorruptionDetected) {
    auto frame = wire::encode_data_ack(1, 0, 0, {});
    frame[5] ^= 0x10;
    EXPECT_FALSE(wire::decode(frame).ok());
}

TEST(DataAckWire, ToString) {
    EXPECT_EQ(proto::to_string(proto::Message{proto::DataAck{proto::Data{7}, proto::Ack{2, 5}}}),
              "D+A(7;2,5)");
}

// --------------------------------------------------------------- transfers --

TEST(Duplex, LosslessSymmetricCompletes) {
    Duplex session(symmetric(500, 0.0, 1), both_ways(500, true));
    EXPECT_TRUE(session.run());
    EXPECT_EQ(session.b().delivered(), 500u);
    EXPECT_EQ(session.a().delivered(), 500u);
    EXPECT_EQ(session.a().tx_metrics().data_retx, 0u);
    EXPECT_EQ(session.b().tx_metrics().data_retx, 0u);
}

TEST(Duplex, LossyBothDirectionsComplete) {
    Duplex session(symmetric(400, 0.1, 2), both_ways(400, true));
    EXPECT_TRUE(session.run());
    EXPECT_EQ(session.b().delivered(), 400u);
    EXPECT_EQ(session.a().delivered(), 400u);
    EXPECT_GT(session.a().tx_metrics().data_retx + session.b().tx_metrics().data_retx, 0u);
}

TEST(Duplex, PiggybackingRidesAcksAndNeverCostsFrames) {
    Duplex with(held(symmetric(1000, 0.0, 3)), both_ways(1000, true));
    Duplex without(held(symmetric(1000, 0.0, 3)), both_ways(1000, false));
    ASSERT_TRUE(with.run());
    ASSERT_TRUE(without.run());
    EXPECT_GT(with.piggybacked(), 0u);
    EXPECT_EQ(without.piggybacked(), 0u);
    // Block acknowledgments already amortize ack frames heavily (the
    // held-ack batching), so riding trims only the remaining standalone
    // frames -- but it must never cost frames.
    EXPECT_LE(with.frames(), without.frames())
        << "on=" << with.frames() << " off=" << without.frames();
    // The headline economy: under symmetric bulk traffic the total frame
    // cost stays close to pure data (1 frame per message) -- the regime a
    // per-message-ack protocol reaches only at ~2 frames per message.
    const double per_msg = static_cast<double>(with.frames()) /
                           static_cast<double>(with.a().delivered() + with.b().delivered());
    EXPECT_LT(per_msg, 1.3);
}

TEST(Duplex, AsymmetricTrafficStillCompletes) {
    // Mostly one-way: acks must still flush via the deferral timer.
    Duplex session(symmetric(600, 0.05, 4), both_ways(30, true));
    EXPECT_TRUE(session.run());
    EXPECT_EQ(session.b().delivered(), 600u);
    EXPECT_EQ(session.a().delivered(), 30u);
    EXPECT_GT(session.standalone_acks(), 0u) << "without reverse data, acks need frames";
}

TEST(Duplex, OneWayDegeneratesToUnidirectional) {
    Duplex session(symmetric(300, 0.1, 5), both_ways(0, true));
    EXPECT_TRUE(session.run());
    EXPECT_EQ(session.b().delivered(), 300u);
    EXPECT_EQ(session.a().delivered(), 0u);
    EXPECT_EQ(session.piggybacked(), 0u) << "no reverse data to ride on";
}

TEST(Duplex, DeterministicForSeed) {
    Duplex x(symmetric(300, 0.1, 6), both_ways(300, true));
    Duplex y(symmetric(300, 0.1, 6), both_ways(300, true));
    ASSERT_TRUE(x.run());
    ASSERT_TRUE(y.run());
    EXPECT_EQ(x.simulator().now(), y.simulator().now());
    EXPECT_EQ(x.frames(), y.frames());
    EXPECT_EQ(x.piggybacked(), y.piggybacked());
}

class DuplexSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DuplexSeedSweep, ExactlyOnceBothWaysUnderLossAndReorder) {
    EngineConfig cfg = symmetric(250, 0.15, GetParam());
    cfg.data_link.delay_lo = 1_ms;
    cfg.data_link.delay_hi = 9_ms;
    cfg.ack_link.delay_lo = 1_ms;
    cfg.ack_link.delay_hi = 9_ms;
    Duplex session(cfg, both_ways(250, true));
    // completed() includes payload verification in both directions.
    ASSERT_TRUE(session.run()) << "seed=" << GetParam();
    EXPECT_EQ(session.b().delivered(), 250u);
    EXPECT_EQ(session.a().delivered(), 250u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DuplexSeedSweep, ::testing::Values(11, 12, 13, 14, 15, 16));

}  // namespace
}  // namespace bacp::link
