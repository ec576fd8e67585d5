// Discrete-event integration tests: whole transfers through lossy,
// reordering channels for every protocol runtime, with parameterized
// sweeps over loss rate, window size, timeout mode and seed.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "runtime/sessions.hpp"

namespace bacp::runtime {
namespace {

using namespace bacp::literals;

EngineConfig base_config(Seq w, Seq count, double loss, std::uint64_t seed) {
    EngineConfig cfg;
    cfg.w = w;
    cfg.count = count;
    cfg.data_link = loss > 0 ? LinkSpec::lossy(loss) : LinkSpec::lossless();
    cfg.ack_link = loss > 0 ? LinkSpec::lossy(loss) : LinkSpec::lossless();
    cfg.seed = seed;
    return cfg;
}

// ------------------------------------------------------------ basic runs --

TEST(UnboundedSessionTest, LosslessTransferCompletes) {
    auto cfg = base_config(8, 500, 0.0, 1);
    UnboundedSession session(cfg);
    const auto metrics = session.run();
    EXPECT_TRUE(session.completed());
    EXPECT_EQ(metrics.delivered, 500u);
    EXPECT_EQ(metrics.data_retx, 0u) << "no loss -> no retransmissions";
    EXPECT_EQ(metrics.duplicates, 0u);
}

TEST(UnboundedSessionTest, ReorderAloneNeedsNoRetransmission) {
    // Uniform delays reorder heavily; block acks must absorb that without
    // a single timeout firing.
    auto cfg = base_config(16, 1000, 0.0, 7);
    cfg.data_link.delay_lo = 0;
    cfg.data_link.delay_hi = 20_ms;
    cfg.ack_link.delay_lo = 0;
    cfg.ack_link.delay_hi = 20_ms;
    UnboundedSession session(cfg);
    const auto metrics = session.run();
    EXPECT_TRUE(session.completed());
    EXPECT_EQ(metrics.data_retx, 0u);
}

TEST(UnboundedSessionTest, LossyTransferCompletes) {
    auto cfg = base_config(8, 300, 0.1, 2);
    UnboundedSession session(cfg);
    const auto metrics = session.run();
    EXPECT_TRUE(session.completed());
    EXPECT_EQ(metrics.delivered, 300u);
    EXPECT_GT(metrics.data_retx, 0u);
}

TEST(BoundedSessionTest, LossyTransferCompletes) {
    auto cfg = base_config(8, 300, 0.1, 3);
    BoundedSession session(cfg);
    const auto metrics = session.run();
    EXPECT_TRUE(session.completed());
    EXPECT_EQ(metrics.delivered, 300u);
}

TEST(HoleReuseSessionTest, LossyTransferCompletes) {
    auto cfg = base_config(8, 300, 0.1, 4);
    HoleReuseSession session(cfg);
    const auto metrics = session.run();
    EXPECT_TRUE(session.completed());
    EXPECT_EQ(metrics.delivered, 300u);
}

TEST(GbnSessionTest, LossyTransferCompletes) {
    auto cfg = base_config(8, 300, 0.1, 5);
    GbnSession session(cfg);
    const auto metrics = session.run();
    EXPECT_TRUE(session.completed());
    EXPECT_EQ(metrics.delivered, 300u);
}

TEST(SrSessionTest, LossyTransferCompletes) {
    auto cfg = base_config(8, 300, 0.1, 6);
    SrSession session(cfg);
    const auto metrics = session.run();
    EXPECT_TRUE(session.completed());
    EXPECT_EQ(metrics.delivered, 300u);
    // SR must ack every received data message.
    EXPECT_EQ(metrics.acks_sent, metrics.data_received);
}

TEST(TcSessionTest, LossyTransferCompletes) {
    auto cfg = base_config(8, 300, 0.05, 7);
    TcSession session(cfg, {.domain = 32});
    const auto metrics = session.run();
    EXPECT_TRUE(session.completed());
    EXPECT_EQ(metrics.delivered, 300u);
}

TEST(AbpSessionTest, LossyTransferCompletes) {
    auto cfg = base_config(8, 100, 0.1, 8);
    AbpSession session(cfg);
    const auto metrics = session.run();
    EXPECT_TRUE(session.completed());
    EXPECT_EQ(metrics.delivered, 100u);
}

// ----------------------------------------------- invariants during DES runs --

TEST(UnboundedSessionTest, InvariantsHoldThroughoutLossyRun) {
    auto cfg = base_config(4, 200, 0.15, 11);
    cfg.check_invariants = true;
    UnboundedSession session(cfg);
    session.run();  // throws AssertionError on any violation
    EXPECT_TRUE(session.completed());
    EXPECT_TRUE(session.invariant_violations().empty());
}

TEST(UnboundedSessionTest, InvariantsHoldWithSimpleTimer) {
    auto cfg = base_config(4, 100, 0.15, 12);
    cfg.timeout_mode = TimeoutMode::SimpleTimer;
    cfg.check_invariants = true;
    UnboundedSession session(cfg);
    session.run();
    EXPECT_TRUE(session.completed());
}

TEST(UnboundedSessionTest, InvariantsHoldWithOracleModes) {
    for (const auto mode : {TimeoutMode::OracleSimple, TimeoutMode::OraclePerMessage}) {
        auto cfg = base_config(4, 100, 0.2, 13);
        cfg.timeout_mode = mode;
        cfg.check_invariants = true;
        UnboundedSession session(cfg);
        session.run();
        EXPECT_TRUE(session.completed()) << to_string(mode);
    }
}

TEST(UnboundedSessionTest, InvariantsHoldWithBatchedAcks) {
    auto cfg = base_config(8, 200, 0.1, 14);
    cfg.ack_policy = AckPolicy::batch(4, 8_ms);
    cfg.check_invariants = true;
    UnboundedSession session(cfg);
    session.run();
    EXPECT_TRUE(session.completed());
}

// ------------------------------------------------------------- ack batching --

TEST(AckBatching, BatchedAcksAreFewerThanEager) {
    auto eager_cfg = base_config(16, 1000, 0.0, 21);
    UnboundedSession eager(eager_cfg);
    const auto eager_metrics = eager.run();

    auto batch_cfg = base_config(16, 1000, 0.0, 21);
    batch_cfg.ack_policy = AckPolicy::batch(8, 10_ms);
    UnboundedSession batched(batch_cfg);
    const auto batch_metrics = batched.run();

    EXPECT_TRUE(eager.completed());
    EXPECT_TRUE(batched.completed());
    EXPECT_LT(batch_metrics.acks_sent, eager_metrics.acks_sent / 2)
        << "batching must collapse acks into blocks";
}

TEST(AckBatching, DelayedPolicyStillCompletes) {
    auto cfg = base_config(8, 300, 0.05, 22);
    cfg.ack_policy = AckPolicy::delayed(5_ms);
    UnboundedSession session(cfg);
    session.run();
    EXPECT_TRUE(session.completed());
}

// --------------------------------------------------------- recovery (E5 core) --

TEST(Recovery, PerMessageTimeoutRecoversFasterThanSimple) {
    // Script: the block ack covering the first full window is lost; the
    // second half of the transfer can only proceed as the window drains,
    // so total completion time measures recovery speed.  The SII sender
    // pays ~one full timeout per message of the lost block (each dup-ack
    // advances na by one, and the next resend waits for the timer); the
    // SIV sender resends the rest RTT-paced once the first dup-ack
    // arrives ("successive resendings ... not separated by any specific
    // time period").
    auto make_cfg = [](TimeoutMode mode) {
        EngineConfig cfg;
        cfg.w = 8;
        cfg.count = 16;
        cfg.timeout_mode = mode;
        cfg.timeout = 40_ms;  // T0 >> RTT makes the contrast stark
        cfg.data_link = LinkSpec::lossless(1_ms, 1_ms);
        cfg.ack_link = LinkSpec::lossless(1_ms, 1_ms);
        cfg.ack_link.loss_kind = LinkSpec::Loss::Scripted;
        cfg.ack_link.scripted_drops = {0};  // the big block ack dies
        cfg.ack_policy = AckPolicy::batch(8, 2_ms);
        cfg.seed = 31;
        return cfg;
    };
    UnboundedSession simple(make_cfg(TimeoutMode::SimpleTimer));
    const auto simple_metrics = simple.run();
    UnboundedSession fast(make_cfg(TimeoutMode::PerMessageTimer));
    const auto fast_metrics = fast.run();
    ASSERT_TRUE(simple.completed());
    ASSERT_TRUE(fast.completed());
    EXPECT_GT(simple_metrics.elapsed(), 3 * fast_metrics.elapsed())
        << "simple=" << simple_metrics.elapsed() << " fast=" << fast_metrics.elapsed();
}

// ----------------------------------------------------------- parameterized --

struct SweepParam {
    Seq w;
    double loss;
    TimeoutMode mode;
    std::uint64_t seed;
};

class BaSessionSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(BaSessionSweep, UnboundedCompletesExactlyOnceInOrder) {
    const auto param = GetParam();
    auto cfg = base_config(param.w, 200, param.loss, param.seed);
    cfg.timeout_mode = param.mode;
    cfg.check_invariants = true;  // full assertion 6-8 audit per step
    UnboundedSession session(cfg);
    const auto metrics = session.run();
    ASSERT_TRUE(session.completed())
        << "w=" << param.w << " loss=" << param.loss << " seed=" << param.seed;
    EXPECT_EQ(metrics.delivered, 200u);
}

TEST_P(BaSessionSweep, BoundedMatchesUnboundedDeliveryAndTraffic) {
    // E6 property: under identical seeds/channels, the SV bounded protocol
    // must transfer the same messages with the same amount of traffic as
    // the unbounded SII/SIV protocol -- the residue compression is
    // semantically invisible.
    const auto param = GetParam();
    auto cfg = base_config(param.w, 200, param.loss, param.seed);
    cfg.timeout_mode = param.mode;
    UnboundedSession unbounded(cfg);
    const auto u = unbounded.run();
    BoundedSession bounded(base_config(param.w, 200, param.loss, param.seed));
    // (rebuild cfg to keep identical rng streams)
    auto cfg2 = base_config(param.w, 200, param.loss, param.seed);
    cfg2.timeout_mode = param.mode;
    BoundedSession bounded2(cfg2);
    const auto b = bounded2.run();
    ASSERT_TRUE(unbounded.completed());
    ASSERT_TRUE(bounded2.completed());
    EXPECT_EQ(b.delivered, u.delivered);
    EXPECT_EQ(b.data_new, u.data_new);
    EXPECT_EQ(b.data_retx, u.data_retx);
    EXPECT_EQ(b.acks_sent, u.acks_sent);
    EXPECT_EQ(b.end_time, u.end_time) << "identical executions expected";
}

INSTANTIATE_TEST_SUITE_P(
    LossWindowModeSeeds, BaSessionSweep,
    ::testing::Values(
        SweepParam{1, 0.0, TimeoutMode::PerMessageTimer, 101},
        SweepParam{1, 0.1, TimeoutMode::SimpleTimer, 102},
        SweepParam{2, 0.05, TimeoutMode::PerMessageTimer, 103},
        SweepParam{4, 0.1, TimeoutMode::PerMessageTimer, 104},
        SweepParam{4, 0.2, TimeoutMode::SimpleTimer, 105},
        SweepParam{8, 0.0, TimeoutMode::SimpleTimer, 106},
        SweepParam{8, 0.15, TimeoutMode::PerMessageTimer, 107},
        SweepParam{8, 0.3, TimeoutMode::PerMessageTimer, 108},
        SweepParam{16, 0.1, TimeoutMode::OraclePerMessage, 109},
        SweepParam{16, 0.25, TimeoutMode::OracleSimple, 110},
        SweepParam{32, 0.1, TimeoutMode::PerMessageTimer, 111},
        SweepParam{32, 0.05, TimeoutMode::SimpleTimer, 112}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
        const auto& p = info.param;
        return "w" + std::to_string(p.w) + "_loss" +
               std::to_string(static_cast<int>(p.loss * 100)) + "_" +
               std::string(to_string(p.mode) == std::string("simple-timer") ? "simple"
                           : to_string(p.mode) == std::string("per-message-timer")
                               ? "permsg"
                               : to_string(p.mode) == std::string("oracle-simple")
                                     ? "osimple"
                                     : "opermsg") +
               "_s" + std::to_string(p.seed);
    });

// Every protocol completes a burst-loss (Gilbert-Elliott) transfer.
class BurstLossSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BurstLossSweep, BlockAckSurvivesBursts) {
    EngineConfig cfg;
    cfg.w = 8;
    cfg.count = 300;
    cfg.seed = GetParam();
    LinkSpec spec;
    spec.loss_kind = LinkSpec::Loss::GilbertElliott;
    spec.ge_p_good_to_bad = 0.02;
    spec.ge_p_bad_to_good = 0.2;
    spec.ge_loss_good = 0.0;
    spec.ge_loss_bad = 0.6;
    cfg.data_link = spec;
    cfg.ack_link = spec;
    cfg.check_invariants = true;
    UnboundedSession session(cfg);
    session.run();
    EXPECT_TRUE(session.completed());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BurstLossSweep, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace bacp::runtime
