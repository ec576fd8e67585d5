// Tests for src/workload: the scenario dispatcher, replication helper,
// table reporter, and ack clipping helpers.

#include <gtest/gtest.h>

#include <vector>

#include "ba/bounded_sender.hpp"
#include "ba/sender.hpp"
#include "runtime/ack_clip.hpp"
#include "runtime/sessions.hpp"
#include "workload/report.hpp"
#include "workload/scenario.hpp"

namespace bacp::workload {
namespace {

using namespace bacp::literals;

// --------------------------------------------------------------- scenarios --

TEST(Scenario, EveryProtocolCompletesLossless) {
    for (const auto protocol :
         {Protocol::BlockAck, Protocol::BlockAckBounded, Protocol::BlockAckHoleReuse,
          Protocol::GoBackN, Protocol::SelectiveRepeat, Protocol::AlternatingBit,
          Protocol::TimeConstrained}) {
        Scenario s;
        s.protocol = protocol;
        s.w = 4;
        s.count = 100;
        const auto result = run_scenario(s);
        EXPECT_TRUE(result.completed) << to_string(protocol);
        EXPECT_EQ(result.metrics.delivered, 100u) << to_string(protocol);
    }
}

TEST(Scenario, EveryProtocolCompletesUnderLoss) {
    for (const auto protocol :
         {Protocol::BlockAck, Protocol::BlockAckBounded, Protocol::BlockAckHoleReuse,
          Protocol::GoBackN, Protocol::SelectiveRepeat, Protocol::AlternatingBit,
          Protocol::TimeConstrained}) {
        Scenario s;
        s.protocol = protocol;
        s.w = 4;
        s.count = 100;
        s.loss = 0.1;
        s.seed = 42;
        const auto result = run_scenario(s);
        EXPECT_TRUE(result.completed) << to_string(protocol);
        EXPECT_EQ(result.metrics.delivered, 100u) << to_string(protocol);
    }
}

TEST(Scenario, DeterministicForSameSeed) {
    Scenario s;
    s.protocol = Protocol::BlockAck;
    s.w = 8;
    s.count = 200;
    s.loss = 0.1;
    s.seed = 99;
    const auto a = run_scenario(s);
    const auto b = run_scenario(s);
    EXPECT_EQ(a.metrics.end_time, b.metrics.end_time);
    EXPECT_EQ(a.metrics.data_retx, b.metrics.data_retx);
    EXPECT_EQ(a.metrics.acks_sent, b.metrics.acks_sent);
}

TEST(Scenario, SeedChangesExecution) {
    Scenario s;
    s.protocol = Protocol::BlockAck;
    s.w = 8;
    s.count = 200;
    s.loss = 0.1;
    const auto a = run_scenario(s);
    s.seed = 1234567;
    const auto b = run_scenario(s);
    EXPECT_NE(a.metrics.end_time, b.metrics.end_time);
}

TEST(Scenario, BurstLossMode) {
    Scenario s;
    s.protocol = Protocol::BlockAck;
    s.w = 8;
    s.count = 200;
    s.loss = 0.1;
    s.burst_loss = true;
    const auto result = run_scenario(s);
    EXPECT_TRUE(result.completed);
}

TEST(Scenario, AsymmetricAckLoss) {
    Scenario s;
    s.protocol = Protocol::BlockAck;
    s.w = 8;
    s.count = 150;
    s.loss = 0.0;
    s.ack_loss = 0.3;  // only acks suffer
    const auto result = run_scenario(s);
    EXPECT_TRUE(result.completed);
    EXPECT_GT(result.metrics.rs_dropped, 0u);
    EXPECT_EQ(result.metrics.sr_dropped, 0u);
}

TEST(Scenario, SelectiveRepeatAcksEverything) {
    Scenario s;
    s.protocol = Protocol::SelectiveRepeat;
    s.w = 8;
    s.count = 300;
    const auto result = run_scenario(s);
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.metrics.acks_sent, result.metrics.data_received);
}

TEST(Scenario, BlockAckBatchingBeatsSelectiveRepeatOnAckCount) {
    Scenario ba;
    ba.protocol = Protocol::BlockAck;
    ba.w = 16;
    ba.count = 500;
    ba.ack_policy = runtime::AckPolicy::batch(8, 10_ms);
    const auto ba_result = run_scenario(ba);

    Scenario sr = ba;
    sr.protocol = Protocol::SelectiveRepeat;
    const auto sr_result = run_scenario(sr);

    ASSERT_TRUE(ba_result.completed);
    ASSERT_TRUE(sr_result.completed);
    EXPECT_LT(ba_result.metrics.acks_per_delivered(),
              sr_result.metrics.acks_per_delivered() / 2.0);
}

TEST(Scenario, TimeConstrainedSmallDomainIsSlower) {
    // The reuse interval is a WORST-CASE bound on message lifetime, which
    // in deployed networks dwarfs the typical RTT (IP's MSL is minutes;
    // RTTs are milliseconds).  With a conservative 100 ms bound over a
    // 5 ms link, the send-rate cap N / reuse_interval dominates for small
    // domains -- the degradation the paper's introduction warns about.
    auto run_with_domain = [](Seq domain) {
        runtime::EngineConfig cfg;
        cfg.w = 8;
        cfg.count = 300;
        cfg.data_link = runtime::LinkSpec::lossless(5_ms, 5_ms);
        cfg.ack_link = runtime::LinkSpec::lossless(5_ms, 5_ms);
        // 100 ms reuse interval: the designer's worst-case lifetime bound.
        runtime::TcSession session(cfg, {.domain = domain, .reuse_interval = 100_ms});
        const auto metrics = session.run();
        EXPECT_TRUE(session.completed()) << "domain=" << domain;
        return metrics.throughput_msgs_per_sec();
    };
    const double big = run_with_domain(64);
    const double small = run_with_domain(9);  // barely exceeds w
    EXPECT_GT(big, 3.0 * small) << "big=" << big << " small=" << small;
}

TEST(Scenario, ReplicationAggregates) {
    Scenario s;
    s.protocol = Protocol::BlockAck;
    s.w = 8;
    s.count = 100;
    s.loss = 0.05;
    const auto agg = run_replicated(s, 5);
    EXPECT_EQ(agg.total_runs, 5);
    EXPECT_EQ(agg.completed_runs, 5);
    EXPECT_GT(agg.mean_throughput, 0.0);
    EXPECT_GE(agg.mean_latency_p99, agg.mean_latency_p50);
}

TEST(Scenario, ProtocolNames) {
    EXPECT_STREQ(to_string(Protocol::BlockAck), "block-ack");
    EXPECT_STREQ(to_string(Protocol::TimeConstrained), "time-constrained");
}

// ------------------------------------------------------------------ report --

TEST(Report, TableAlignsColumns) {
    Table t({"proto", "thr"});
    t.add_row({"block-ack", "123.4"});
    t.add_row({"gbn", "99.9"});
    const auto text = t.to_string();
    EXPECT_NE(text.find("proto"), std::string::npos);
    EXPECT_NE(text.find("block-ack"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Report, RowWidthMismatchAsserts) {
    Table t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), AssertionError);
}

TEST(Report, FmtDigits) {
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(2.0, 0), "2");
}

TEST(Report, CsvEscapesSpecials) {
    Table t({"name", "note"});
    t.add_row({"plain", "a,b"});
    t.add_row({"quoted", "say \"hi\""});
    const auto csv = t.to_csv();
    EXPECT_NE(csv.find("name,note\n"), std::string::npos);
    EXPECT_NE(csv.find("plain,\"a,b\"\n"), std::string::npos);
    EXPECT_NE(csv.find("quoted,\"say \"\"hi\"\"\"\n"), std::string::npos);
}

TEST(Scenario, ReplicationReportsSpread) {
    Scenario s;
    s.protocol = Protocol::BlockAck;
    s.w = 8;
    s.count = 150;
    s.loss = 0.1;
    const auto agg = run_replicated(s, 6);
    ASSERT_EQ(agg.completed_runs, 6);
    EXPECT_GT(agg.sd_throughput, 0.0) << "different seeds must differ";
    EXPECT_LE(agg.min_throughput, agg.mean_throughput);
    EXPECT_GE(agg.max_throughput, agg.mean_throughput);
    const auto text = agg.throughput_summary();
    EXPECT_NE(text.find("+-"), std::string::npos);
    EXPECT_NE(text.find("6/6 runs"), std::string::npos);
}

// ---------------------------------------------------------------- ack clip --

TEST(AckClip, IdentityOnFreshRange) {
    ba::Sender s(4);
    for (int i = 0; i < 4; ++i) s.send_new();
    std::vector<proto::Ack> runs;
    runtime::clip_ack_unbounded_into(s, proto::Ack{0, 3}, runs);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0], (proto::Ack{0, 3}));
}

TEST(AckClip, DropsFullyStale) {
    ba::Sender s(4);
    s.send_new();
    s.on_ack(proto::Ack{0, 0});
    std::vector<proto::Ack> runs;
    runtime::clip_ack_unbounded_into(s, proto::Ack{0, 0}, runs);
    EXPECT_TRUE(runs.empty());
}

TEST(AckClip, SplitsAroundHole) {
    ba::Sender s(6);
    for (int i = 0; i < 6; ++i) s.send_new();
    s.on_ack(proto::Ack{2, 3});  // hole in the middle
    std::vector<proto::Ack> runs;
    runtime::clip_ack_unbounded_into(s, proto::Ack{0, 5}, runs);
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0], (proto::Ack{0, 1}));
    EXPECT_EQ(runs[1], (proto::Ack{4, 5}));
}

TEST(AckClip, ClipsPartialOverlap) {
    ba::Sender s(4);
    for (int i = 0; i < 4; ++i) s.send_new();
    s.on_ack(proto::Ack{0, 1});
    std::vector<proto::Ack> runs;
    runtime::clip_ack_unbounded_into(s, proto::Ack{1, 3}, runs);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0], (proto::Ack{2, 3}));
}

TEST(AckClip, BoundedWrappedRange) {
    ba::BoundedSender s(2);  // n = 4
    // Walk na to residue 3, then fill window with true 3,4 (residues 3,0).
    for (Seq i = 0; i < 3; ++i) {
        const auto msg = s.send_new();
        s.on_ack(proto::Ack{msg.seq, msg.seq});
    }
    s.send_new();
    s.send_new();
    std::vector<proto::Ack> runs;
    runtime::clip_ack_bounded_into(s, proto::Ack{3, 0}, runs);  // wrapped
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].lo, 3u);
    EXPECT_EQ(runs[0].hi, 0u);
}

TEST(AckClip, BoundedMalformedResiduesIgnored) {
    ba::BoundedSender s(2);
    s.send_new();
    std::vector<proto::Ack> runs;
    runtime::clip_ack_bounded_into(s, proto::Ack{7, 7}, runs);
    EXPECT_TRUE(runs.empty());
}

}  // namespace
}  // namespace bacp::workload
