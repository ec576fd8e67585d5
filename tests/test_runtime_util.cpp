// Dedicated tests for the small runtime utilities: SACK-style ack
// clipping at the mod-2w wrap boundary (ack_clip.hpp), the seed-mixing
// and TimeoutMode naming helpers (session_util.cpp), the send-horizon
// rule (horizon.hpp), and the shared derived-timeout formula
// (endpoint_driver.hpp).

#include <gtest/gtest.h>

#include <vector>

#include "ba/bounded_sender.hpp"
#include "ba/sender.hpp"
#include "runtime/ack_clip.hpp"
#include "runtime/endpoint_driver.hpp"
#include "runtime/horizon.hpp"
#include "runtime/session_util.hpp"
#include "runtime/timeout_mode.hpp"

namespace bacp::runtime {
namespace {

// --------------------------------------------------- unbounded ack clipping --

TEST(AckClipUnbounded, FullFreshRangePassesThrough) {
    ba::Sender s(4);
    for (int i = 0; i < 4; ++i) s.send_new();
    std::vector<proto::Ack> runs;
    clip_ack_unbounded_into(s, proto::Ack{0, 3}, runs);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0], (proto::Ack{0, 3}));
}

TEST(AckClipUnbounded, RangeBeyondNsIsTruncated) {
    ba::Sender s(8);
    s.send_new();
    s.send_new();
    std::vector<proto::Ack> runs;
    clip_ack_unbounded_into(s, proto::Ack{0, 7}, runs);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0], (proto::Ack{0, 1}));
}

TEST(AckClipUnbounded, InvertedRangeIsEmpty) {
    ba::Sender s(4);
    s.send_new();
    std::vector<proto::Ack> runs;
    clip_ack_unbounded_into(s, proto::Ack{3, 1}, runs);
    EXPECT_TRUE(runs.empty());
}

TEST(AckClipUnbounded, MultipleHolesSplitIntoMultipleRuns) {
    ba::Sender s(8);
    for (int i = 0; i < 8; ++i) s.send_new();
    s.on_ack(proto::Ack{1, 1});
    s.on_ack(proto::Ack{4, 5});
    std::vector<proto::Ack> runs;
    clip_ack_unbounded_into(s, proto::Ack{0, 7}, runs);
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[0], (proto::Ack{0, 0}));
    EXPECT_EQ(runs[1], (proto::Ack{2, 3}));
    EXPECT_EQ(runs[2], (proto::Ack{6, 7}));
}

// ------------------------------------- bounded ack clipping at the mod-2w wrap --

/// Walks a bounded sender (domain n = 2w) so that na sits at residue
/// `target` with an empty window: send and immediately ack until there.
void walk_na_to(ba::BoundedSender& s, Seq target) {
    while (s.na_mod() != target) {
        const auto msg = s.send_new();
        s.on_ack(proto::Ack{msg.seq, msg.seq});
    }
}

TEST(AckClipBounded, WrappedRangeStaysOneRun) {
    ba::BoundedSender s(4);  // n = 8
    walk_na_to(s, 6);
    for (int i = 0; i < 4; ++i) s.send_new();  // residues 6,7,0,1
    std::vector<proto::Ack> runs;
    clip_ack_bounded_into(s, proto::Ack{6, 1}, runs);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].lo, 6u);
    EXPECT_EQ(runs[0].hi, 1u);
}

TEST(AckClipBounded, HoleExactlyAtTheWrapSplitsRuns) {
    ba::BoundedSender s(4);  // n = 8
    walk_na_to(s, 6);
    for (int i = 0; i < 4; ++i) s.send_new();  // residues 6,7,0,1
    s.on_ack(proto::Ack{0, 0});                // hole right past the wrap
    std::vector<proto::Ack> runs;
    clip_ack_bounded_into(s, proto::Ack{6, 1}, runs);
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0], (proto::Ack{6, 7}));
    EXPECT_EQ(runs[1], (proto::Ack{1, 1}));
}

TEST(AckClipBounded, StaleResiduesBelowNaAreClipped) {
    ba::BoundedSender s(4);  // n = 8
    walk_na_to(s, 2);
    s.send_new();  // residue 2 outstanding
    // Residues 0..1 alias ALREADY-ACKED positions one domain ago; only
    // the outstanding residue 2 may reach the strict core.
    std::vector<proto::Ack> runs;
    clip_ack_bounded_into(s, proto::Ack{0, 2}, runs);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0], (proto::Ack{2, 2}));
}

TEST(AckClipBounded, MalformedResiduesOutsideDomainIgnored) {
    ba::BoundedSender s(4);
    s.send_new();
    std::vector<proto::Ack> runs;
    clip_ack_bounded_into(s, proto::Ack{8, 8}, runs);
    EXPECT_TRUE(runs.empty());
    clip_ack_bounded_into(s, proto::Ack{0, 9}, runs);
    EXPECT_TRUE(runs.empty());
}

TEST(AckClipBounded, EmptyWindowYieldsNoRuns) {
    ba::BoundedSender s(4);
    walk_na_to(s, 5);
    std::vector<proto::Ack> runs;
    clip_ack_bounded_into(s, proto::Ack{4, 6}, runs);
    EXPECT_TRUE(runs.empty());
}

// ---------------------------------------------------------- session_util --

TEST(SessionUtil, TimeoutModeNames) {
    EXPECT_STREQ(to_string(TimeoutMode::OracleSimple), "oracle-simple");
    EXPECT_STREQ(to_string(TimeoutMode::OraclePerMessage), "oracle-per-message");
    EXPECT_STREQ(to_string(TimeoutMode::SimpleTimer), "simple-timer");
    EXPECT_STREQ(to_string(TimeoutMode::PerMessageTimer), "per-message-timer");
}

TEST(SessionUtil, MixSeedIsDeterministicAndSaltSensitive) {
    EXPECT_EQ(mix_seed(1, 0xd1), mix_seed(1, 0xd1));
    EXPECT_NE(mix_seed(1, 0xd1), mix_seed(1, 0xac));
    EXPECT_NE(mix_seed(1, 0xd1), mix_seed(2, 0xd1));
    // Channel RNG streams must stay decorrelated even for seed 0.
    EXPECT_NE(mix_seed(0, 0xd1), mix_seed(0, 0xac));
    EXPECT_NE(mix_seed(0, 0xd1), 0u);
}

// ------------------------------------------------------------ derived timeout --

// The conservative retransmission timeout that preserves the paper's
// assertion 8 (at most one copy of each data message or its ack in
// transit): one data lifetime out, one ack lifetime back, the longest the
// receiver may sit on the ack, plus a millisecond of margin.  Both
// runtimes derive from this one function; the values here pin the bound.

TEST(DerivedTimeout, SumOfLifetimesAckDelayAndMargin) {
    LinkSpec data;
    data.delay_kind = LinkSpec::Delay::Fixed;
    data.delay_lo = 7 * kMillisecond;  // Fixed: lifetime == delay_lo
    LinkSpec ack;
    ack.delay_kind = LinkSpec::Delay::Uniform;
    ack.delay_lo = 2 * kMillisecond;
    ack.delay_hi = 5 * kMillisecond;  // Uniform: lifetime == delay_hi
    const AckPolicy policy = AckPolicy::batch(4, 3 * kMillisecond);
    EXPECT_EQ(derived_timeout(data, ack, policy),
              7 * kMillisecond + 5 * kMillisecond + 3 * kMillisecond + kMillisecond);
}

TEST(DerivedTimeout, EagerPolicyContributesNoAckDelay) {
    const LinkSpec link = LinkSpec::lossless(0, 10 * kMillisecond);
    EXPECT_EQ(derived_timeout(link, link, AckPolicy::eager()),
              2 * 10 * kMillisecond + kMillisecond);
}

TEST(DerivedTimeout, BottleneckQueueExtendsTheLifetime) {
    // A queued message can wait behind queue_capacity predecessors plus
    // its own service slot; the bound must absorb that worst case.
    LinkSpec data = LinkSpec::lossless(0, 4 * kMillisecond);
    data.service_time = 100 * kMicrosecond;
    data.queue_capacity = 9;
    const LinkSpec ack = LinkSpec::lossless(0, 4 * kMillisecond);
    EXPECT_EQ(derived_timeout(data, ack, AckPolicy::eager()),
              (4 * kMillisecond + 10 * 100 * kMicrosecond) + 4 * kMillisecond + kMillisecond);
}

TEST(DerivedTimeout, StrictlyExceedsTheRoundTrip) {
    // The margin is what makes assertion 8 hold: the timer may not fire
    // while the previous copy (or the ack it provoked) can still arrive.
    const LinkSpec link = LinkSpec::lossless(0, 10 * kMillisecond);
    EXPECT_GT(derived_timeout(link, link, AckPolicy::eager()),
              link.max_lifetime() + link.max_lifetime());
}

TEST(DerivedTimeout, EffectiveTimeoutPrefersTheExplicitValue) {
    EngineConfig cfg;
    cfg.data_link = LinkSpec::lossless(0, 10 * kMillisecond);
    cfg.ack_link = LinkSpec::lossless(0, 10 * kMillisecond);
    EXPECT_EQ(effective_timeout(cfg),
              derived_timeout(cfg.data_link, cfg.ack_link, cfg.ack_policy));
    cfg.timeout = 42 * kMillisecond;
    EXPECT_EQ(effective_timeout(cfg), 42 * kMillisecond);
}

// --------------------------------------------------------------- SendHorizon --

TEST(SendHorizon, FreshHorizonNeverBlocks) {
    SendHorizon h;
    EXPECT_FALSE(h.blocks(0, 0));
    EXPECT_FALSE(h.blocks(1'000'000, 0));
}

TEST(SendHorizon, CapsAtAckedSeqPlusWindowUntilCopyDies) {
    SendHorizon h;
    // Message 3 acked at t=50 while a resent copy may live until t=100.
    h.note(3, /*copy_gone=*/100, /*now=*/50, /*w=*/4);
    EXPECT_FALSE(h.blocks(6, 60));  // 6 < 3 + 4
    EXPECT_TRUE(h.blocks(7, 60));   // ns may not reach i + w
    EXPECT_EQ(h.until(), 100);
    EXPECT_FALSE(h.blocks(7, 100));  // copy provably dead: cap lifts
    EXPECT_FALSE(h.blocks(7, 101));
}

TEST(SendHorizon, TightestCapAndLatestExpiryWin) {
    SendHorizon h;
    h.note(10, 200, 50, 8);  // cap 18 until 200
    h.note(5, 120, 50, 8);   // cap 13, until stays 200
    EXPECT_TRUE(h.blocks(13, 60));
    EXPECT_FALSE(h.blocks(12, 60));
    EXPECT_EQ(h.until(), 200);
}

TEST(SendHorizon, DeadCopyIsIgnored) {
    SendHorizon h;
    h.note(3, /*copy_gone=*/40, /*now=*/50, /*w=*/4);  // already gone
    EXPECT_FALSE(h.blocks(100, 51));
}

}  // namespace
}  // namespace bacp::runtime
