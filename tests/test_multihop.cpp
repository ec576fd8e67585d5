// Tests for link endpoints, frame relays, and the two multi-hop
// reliability architectures.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "link/link_endpoints.hpp"
#include "link/multihop.hpp"
#include "sim/simulator.hpp"

namespace bacp::link {
namespace {

using namespace bacp::literals;

std::vector<std::uint8_t> payload_for(Seq i) {
    const std::string text = "p" + std::to_string(i);
    return std::vector<std::uint8_t>(text.begin(), text.end());
}

// ----------------------------------------------------------- endpoints pair --

struct PointToPoint {
    sim::Simulator sim;
    Rng fwd_rng{101};
    Rng rev_rng{102};
    ByteChannel forward;
    ByteChannel reverse;
    LinkEndpoint tx;  // sends DATA on forward
    LinkEndpoint rx;  // acks on reverse

    explicit PointToPoint(double loss, EndpointConfig cfg = {})
        : forward(sim, fwd_rng, make_cfg(loss), "f"),
          reverse(sim, rev_rng, make_cfg(loss), "r"),
          tx(sim, forward, cfg),
          rx(sim, reverse, cfg) {
        forward.set_receiver([this](const ByteChannel::Frame& f) { rx.on_frame(f); });
        reverse.set_receiver([this](const ByteChannel::Frame& f) { tx.on_frame(f); });
    }

    static ByteChannel::Config make_cfg(double loss) {
        ByteChannel::Config cfg;
        if (loss > 0) cfg.loss = std::make_unique<channel::BernoulliLoss>(loss);
        cfg.delay = std::make_unique<channel::UniformDelay>(1_ms, 2_ms);
        return cfg;
    }
};

TEST(LinkEndpoints, PairDeliversInOrderUnderLoss) {
    EndpointConfig cfg;
    cfg.w = 8;
    cfg.path_lifetime = 2_ms;
    PointToPoint link(0.15, cfg);
    std::vector<std::vector<std::uint8_t>> got;
    link.rx.set_on_deliver(
        [&](std::span<const std::uint8_t> p) { got.emplace_back(p.begin(), p.end()); });
    for (Seq i = 0; i < 200; ++i) link.tx.send(payload_for(i));
    link.sim.run();
    ASSERT_EQ(got.size(), 200u);
    for (Seq i = 0; i < 200; ++i) ASSERT_EQ(got[i], payload_for(i)) << i;
    EXPECT_TRUE(link.tx.idle());
    EXPECT_GT(link.tx.retransmissions(), 0u);
}

TEST(LinkEndpoints, NakPathWorksAcrossEndpoints) {
    EndpointConfig cfg;
    cfg.w = 8;
    cfg.path_lifetime = 2_ms;
    cfg.enable_nak = true;
    PointToPoint link(0.15, cfg);
    Seq delivered = 0;
    link.rx.set_on_deliver([&](std::span<const std::uint8_t>) { ++delivered; });
    for (Seq i = 0; i < 200; ++i) link.tx.send(payload_for(i));
    link.sim.run();
    EXPECT_EQ(delivered, 200u);
    EXPECT_GT(link.rx.naks_sent(), 0u);
    EXPECT_GT(link.tx.fast_retransmissions(), 0u);
}

// ------------------------------------------------------------------- relay --

TEST(FrameRelayTest, ForwardsAfterProcessingDelay) {
    sim::Simulator sim;
    Rng rng(7);
    ByteChannel downstream(sim, rng, PointToPoint::make_cfg(0.0));
    std::vector<SimTime> arrivals;
    downstream.set_receiver([&](const ByteChannel::Frame&) { arrivals.push_back(sim.now()); });
    FrameRelay relay(sim, downstream, 100 * kMicrosecond);
    relay.on_frame({1, 2, 3});
    sim.run();
    ASSERT_EQ(arrivals.size(), 1u);
    EXPECT_GE(arrivals[0], 100 * kMicrosecond + 1_ms);
    EXPECT_EQ(relay.forwarded(), 1u);
}

// ---------------------------------------------------------------- topologies --

PathConfig chain(std::size_t hops, double per_hop_loss, std::uint64_t seed) {
    PathConfig cfg;
    cfg.w = 16;
    cfg.seed = seed;
    for (std::size_t i = 0; i < hops; ++i) {
        HopSpec hop;
        hop.loss = per_hop_loss;
        cfg.hops.push_back(hop);
    }
    return cfg;
}

template <typename Path>
void run_path_test(std::size_t hops, double loss, std::uint64_t seed) {
    sim::Simulator sim;
    Path path(sim, chain(hops, loss, seed));
    std::vector<std::vector<std::uint8_t>> got;
    path.set_on_deliver(
        [&](std::span<const std::uint8_t> p) { got.emplace_back(p.begin(), p.end()); });
    for (Seq i = 0; i < 150; ++i) path.send(payload_for(i));
    sim.run();
    ASSERT_EQ(got.size(), 150u) << hops << " hops, loss " << loss;
    for (Seq i = 0; i < 150; ++i) ASSERT_EQ(got[i], payload_for(i)) << i;
    EXPECT_TRUE(path.idle());
    EXPECT_EQ(path.delivered_count(), 150u);
}

TEST(EndToEnd, SingleHopIsAPlainLink) { run_path_test<EndToEndPath>(1, 0.1, 31); }
TEST(EndToEnd, ThreeHopsClean) { run_path_test<EndToEndPath>(3, 0.0, 32); }
TEST(EndToEnd, ThreeHopsLossy) { run_path_test<EndToEndPath>(3, 0.05, 33); }
TEST(EndToEnd, FiveHopsLossy) { run_path_test<EndToEndPath>(5, 0.05, 34); }

TEST(HopByHop, SingleHopIsAPlainLink) { run_path_test<HopByHopPath>(1, 0.1, 41); }
TEST(HopByHop, ThreeHopsClean) { run_path_test<HopByHopPath>(3, 0.0, 42); }
TEST(HopByHop, ThreeHopsLossy) { run_path_test<HopByHopPath>(3, 0.05, 43); }
TEST(HopByHop, FiveHopsLossy) { run_path_test<HopByHopPath>(5, 0.1, 44); }

TEST(Multihop, EndToEndRetransmitsCrossTheWholePath) {
    // With per-hop loss p and k hops, an end-to-end transfer retransmits
    // ~1-(1-p)^k of messages; hop-by-hop retransmits ~k*p of per-hop
    // copies but each crosses ONE hop.  Check the directional claim that
    // e2e's end-to-end retransmission count exceeds any single hop's.
    sim::Simulator sim_a;
    EndToEndPath e2e(sim_a, chain(4, 0.08, 51));
    e2e.set_on_deliver([](std::span<const std::uint8_t>) {});
    for (Seq i = 0; i < 400; ++i) e2e.send(payload_for(i));
    sim_a.run();
    ASSERT_EQ(e2e.delivered_count(), 400u);

    sim::Simulator sim_b;
    HopByHopPath hbh(sim_b, chain(4, 0.08, 51));
    hbh.set_on_deliver([](std::span<const std::uint8_t>) {});
    for (Seq i = 0; i < 400; ++i) hbh.send(payload_for(i));
    sim_b.run();
    ASSERT_EQ(hbh.delivered_count(), 400u);

    // e2e loses ~1-(0.92^4) = 28% per direction attempt; each hbh hop
    // only ~8%.  Aggregate hop retx CAN exceed e2e's count (4 hops), but
    // per-hop it must be far lower.
    EXPECT_GT(e2e.total_retransmissions(), hbh.total_retransmissions() / 4)
        << "e2e=" << e2e.total_retransmissions() << " hbh=" << hbh.total_retransmissions();
    EXPECT_GT(e2e.total_frames(), 0u);
    EXPECT_GT(hbh.total_frames(), 0u);
}

TEST(Multihop, DeterministicForSeed) {
    auto run_once = [] {
        sim::Simulator sim;
        EndToEndPath path(sim, chain(3, 0.1, 61));
        path.set_on_deliver([](std::span<const std::uint8_t>) {});
        for (Seq i = 0; i < 100; ++i) path.send(payload_for(i));
        sim.run();
        return std::pair{path.total_frames(), path.total_retransmissions()};
    };
    EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace bacp::link
