// Per-session memory, measured.  The benches' counting operator new
// (bench/memory_probe.hpp) tracks live heap bytes, so these tests pin
// what a session actually costs: Server::session_footprint() (the
// figure arena_budget divides by) against the heap a few hundred
// admitted sessions really hold, per-message state against the window
// rather than the count, and a receiver's heap against payloads the
// core rejected, discarded or had already delivered, none of which may
// stay parked.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ba/engine_core.hpp"
#include "baselines/engine_cores.hpp"
#include "link/reliable_link.hpp"
#include "memory_probe.hpp"
#include "net/client_fleet.hpp"
#include "net/clock.hpp"
#include "net/frame_path.hpp"
#include "net/inproc_hub.hpp"
#include "net/net_engine.hpp"
#include "net/server.hpp"
#include "net/timer_wheel.hpp"
#include "net/transport.hpp"
#include "sim/simulator.hpp"
#include "wire/codec.hpp"

namespace bacp::net {
namespace {

using Core = ba::EngineCore<ba::Sender, ba::Receiver>;

std::int64_t live_bytes() { return memprobe::live_bytes_now(); }

constexpr Seq kCount = 4;  // messages per session (E24's transfer)

/// E24's session configuration (w = 4, 32-byte payloads, receivers
/// open-ended at rx_count = 2^20) at a given window and payload size;
/// \p count > 0 makes each session also source that many messages.
ServerConfig session_config(std::size_t max_sessions, Seq w, std::size_t payload, Seq count) {
    ServerConfig cfg;
    cfg.session.w = w;
    cfg.session.count = count;
    cfg.session.rx_count = 1 << 20;
    cfg.session.payload_size = payload;
    cfg.session.max_datagram = payload + 128;
    cfg.session.link_lifetime = 1 * kMillisecond;
    cfg.session.timeout = 250 * kMillisecond;
    cfg.session.seed = 11;
    cfg.recv_batch = 64;
    cfg.idle_timeout = 600 * kSecond;
    cfg.max_sessions = max_sessions;
    return cfg;
}

/// Sends a whole kCount-message transfer for each conn in [first, last)
/// from \p client, polling \p server after every few sessions so the
/// shard's egress batch stays at a small high-water mark, and drains
/// the acks.  Returns the live heap bytes the server gained inside its
/// polls (the hub's allocations, made at injection, fall outside).
std::int64_t admit(Server<Core>& server, Transport& client, Seq first, Seq last,
                   std::size_t payload_size) {
    std::vector<std::uint8_t> frame;
    std::vector<std::uint8_t> payload(payload_size);
    RecvBatch acks(256, kMaxDatagram);
    std::int64_t gained = 0;
    const auto poll = [&] {
        const std::int64_t before = live_bytes();
        server.poll();
        gained += live_bytes() - before;
        while (client.recv_batch(acks) == acks.capacity()) {
        }
    };
    for (Seq conn = first; conn < last; ++conn) {
        for (Seq seq = 0; seq < kCount; ++seq) {
            pattern_fill(seq, payload);
            frame.clear();
            wire::encode_data_to(frame, seq, payload, wire::kFlagNone, wire::kNoStream,
                                 wire::Conn{conn, 1});
            const std::span<const std::uint8_t> one[] = {std::span<const std::uint8_t>{frame}};
            client.send_batch(one);
        }
        if ((conn - first) % 8 == 7) poll();
    }
    poll();
    return gained;
}

/// Heap bytes per admitted session for \p w and \p payload: a warm-up
/// server first grows the hub's recycled buffers to the traffic's high
/// water, then a fresh server admits the same sessions and the heap it
/// gains inside its polls is divided among them.  The table slab is
/// reserved at construction, so the session's slot is the one term of
/// the estimate the delta does not see (~100 B, inside the tolerance).
struct Measured {
    double per_session = 0;
    double estimate = 0;
};

Measured measure(Seq w, std::size_t payload, Seq count = 0) {
    constexpr std::size_t kSessions = 400;
    ManualClock clock;
    InprocHub hub(8192, 8192);
    std::unique_ptr<Transport> client = hub.make_client();
    {
        Server<Core> warmup(session_config(kSessions, w, payload, count), {}, clock,
                            {&hub.server()});
        admit(warmup, *client, 1, 1 + kSessions, payload);
    }
    Server<Core> server(session_config(kSessions, w, payload, count), {}, clock,
                        {&hub.server()});
    const std::int64_t gained = admit(server, *client, 1, 1 + kSessions, payload);
    EXPECT_EQ(server.session_count(), kSessions);
    EXPECT_EQ(server.protocol_metrics().delivered, kSessions * kCount);
    return {static_cast<double>(gained) / kSessions,
            static_cast<double>(server.session_footprint())};
}

// The estimate must hold to this fraction either way: arena_budget
// divides by it, so an underestimate overcommits memory and an
// overestimate turns peers away for nothing.
constexpr double kTolerance = 0.10;

TEST(Footprint, ServerSessionHeapMatchesEstimate) {
    const Measured m = measure(4, 32);  // E24's sessions
    RecordProperty("heap_bytes_per_session", static_cast<int>(m.per_session));
    RecordProperty("session_footprint", static_cast<int>(m.estimate));
    EXPECT_NEAR(m.per_session, m.estimate, kTolerance * m.estimate);
}

TEST(Footprint, EstimateScalesWithWindowPayloadAndCount) {
    // Away from E24's tiny receive-only sessions other terms dominate:
    // the w- and payload-sized stash, staging and scratch, and a duplex
    // session's per-seq send tables.  The estimate must track them too.
    struct Shape {
        Seq w;
        std::size_t payload;
        Seq count;
    };
    for (const Shape& shape : {Shape{32, 1024, 0}, Shape{64, 32, 0}, Shape{8, 64, 1000}}) {
        const Measured m = measure(shape.w, shape.payload, shape.count);
        EXPECT_NEAR(m.per_session, m.estimate, kTolerance * m.estimate)
            << "w=" << shape.w << " payload=" << shape.payload << " count=" << shape.count;
    }
}

TEST(Footprint, ReceiveHalfReservesNothingSizedByRxCount) {
    // A pure receiver (count = 0) never starts, so its per-seq send
    // tables stay empty however large rx_count is: the endpoint costs
    // the same at rx_count = 2^20 as at rx_count = 4.
    ManualClock clock;
    TimerWheel wheel(clock);
    InprocHub hub;
    std::unique_ptr<Transport> transport = hub.make_client();
    sim::LatencyHistograms sink;
    const auto endpoint_bytes = [&](Seq count, Seq rx_count) {
        NetConfig cfg;
        cfg.w = 4;
        cfg.count = count;
        cfg.rx_count = rx_count;
        cfg.payload_size = 32;
        cfg.batch = 1;
        const std::int64_t before = live_bytes();
        NetEndpoint<Core> endpoint(cfg, {}, wheel, *transport, &sink);
        return live_bytes() - before;
    };
    endpoint_bytes(0, 4);  // grows the shared wheel's node slab once
    const std::int64_t small = endpoint_bytes(0, 4);
    EXPECT_EQ(endpoint_bytes(0, 1 << 20), small);

    // Nor does the sending half size anything by its count: start()
    // sizes the ring of per-message records by the window, so it
    // allocates the same for 64 messages as for 2^16 (the first
    // window's frames queue in the undrained hub alike).
    const auto start_bytes = [&](Seq count) {
        NetConfig cfg;
        cfg.w = 4;
        cfg.count = count;
        cfg.payload_size = 32;
        NetEndpoint<Core> sender(cfg, {}, wheel, *transport, &sink);
        const std::int64_t before = live_bytes();
        sender.start();
        return live_bytes() - before;
    };
    start_bytes(64);  // warm-up, as above
    const std::int64_t at_64 = start_bytes(64);
    EXPECT_GT(at_64, 0);
    EXPECT_EQ(start_bytes(1 << 16), at_64);
}

TEST(Footprint, FleetSessionHeapIndependentOfCount) {
    // A ClientFleet session is a sourcing NetEndpoint driven through
    // handle_frame: its heap is protocol state proper, and none of it
    // may scale with the messages it will send.
    const auto per_session = [](Seq count) {
        constexpr std::size_t kSessions = 256;
        ManualClock clock;
        InprocHub hub(8192, 8192);
        std::vector<std::unique_ptr<Transport>> sockets;
        std::vector<Transport*> socket_ptrs;
        for (int i = 0; i < 4; ++i) {
            sockets.push_back(hub.make_client());
            socket_ptrs.push_back(sockets.back().get());
        }
        FleetConfig cfg;
        cfg.session.w = 4;
        cfg.session.count = count;
        cfg.session.payload_size = 32;
        cfg.session.max_datagram = 32 + 128;
        cfg.session.link_lifetime = 1 * kMillisecond;
        cfg.session.timeout = 250 * kMillisecond;
        cfg.sessions = kSessions;
        const std::int64_t before = live_bytes();
        ClientFleet<Core> fleet(cfg, {}, clock, socket_ptrs);
        fleet.poll();  // admits every session: its first window leaves
        EXPECT_EQ(fleet.stats().sessions_started, std::uint64_t{kSessions});
        return static_cast<double>(live_bytes() - before) / kSessions;
    };
    per_session(64);  // warm-up: first-use allocations outside the fleet
    const double at_64 = per_session(64);
    const double at_4096 = per_session(4096);
    RecordProperty("fleet_heap_bytes_per_session", static_cast<int>(at_64));
    EXPECT_NEAR(at_4096, at_64, 1.0);
}

TEST(Footprint, FleetHoldsOnlyItsAdmittedSessions) {
    // Sessions are built on admission and freed when they finish, so a
    // fleet of 256 sessions with an admission window of 16 holds what a
    // fleet of 16 does, plus one pointer per session.
    const auto fleet_bytes = [](std::size_t sessions) {
        ManualClock clock;
        InprocHub hub(8192, 8192);
        std::unique_ptr<Transport> socket = hub.make_client();
        FleetConfig cfg;
        cfg.session.w = 4;
        cfg.session.count = 64;
        cfg.session.payload_size = 32;
        cfg.session.max_datagram = 32 + 128;
        cfg.session.timeout = 250 * kMillisecond;
        cfg.sessions = sessions;
        cfg.max_active = 16;
        const std::int64_t before = live_bytes();
        ClientFleet<Core> fleet(cfg, {}, clock, {socket.get()});
        fleet.poll();  // admits the first 16
        EXPECT_EQ(fleet.active_count(), 16u);
        return live_bytes() - before;
    };
    fleet_bytes(16);  // warm-up
    const std::int64_t window_only = fleet_bytes(16);
    const std::int64_t many = fleet_bytes(256);
    EXPECT_LE(many - window_only, static_cast<std::int64_t>(240 * sizeof(void*) + 64));
}

TEST(Footprint, IncrementalWheelReserveGrowsGeometrically) {
    // Hosts reserve a session's timers as they build it, with earlier
    // sessions' timers live: n timers reserved four at a time must cost
    // O(log n) allocations, not one slab copy per session.
    constexpr std::size_t kTimers = 4096;
    ManualClock clock;
    TimerWheel wheel(clock);
    const std::uint64_t before = memprobe::allocs_now();
    for (std::size_t i = 0; i < kTimers; i += 4) {
        wheel.reserve(4);
        for (int k = 0; k < 4; ++k) wheel.schedule_after(kSecond, [] {});
    }
    const std::uint64_t allocs = memprobe::allocs_now() - before;
    EXPECT_EQ(wheel.armed(), kTimers);
    // Two vectors (node slab, fire scratch), each doubling from 4.
    EXPECT_LE(allocs, 2u * 12u);
}

// ---- leak regressions ------------------------------------------------------
//
// Each case drives a pure receiver through NetEndpoint::handle_frame and
// compares the heap it gains against an in-order control of the same
// length on the same endpoint.  Acks leave for a peer queue nobody
// drains, so the control grows by that backlog (~100 KB for 10k acks);
// a case may grow by no more than the control plus kFlat.

constexpr std::int64_t kFlat = 4096;
constexpr std::size_t kPayload = 128;
constexpr Seq kFrames = 10'000;

/// A pure receiver over an InprocHub whose peer queue is never drained.
template <typename C>
class Receiver {
public:
    explicit Receiver(runtime::AckPolicy policy = runtime::AckPolicy::eager(),
                      typename C::Options options = {})
        : wheel_(clock_), transport_(hub_.make_client()) {
        NetConfig cfg;
        cfg.w = 16;
        cfg.count = 0;
        cfg.rx_count = runtime::kUnboundedCount;
        cfg.payload_size = kPayload;
        cfg.batch = 1;
        cfg.ack_policy = policy;
        endpoint_ = std::make_unique<NetEndpoint<C>>(cfg, options, wheel_, *transport_, &sink_);
        frame_.reserve(kPayload + 64);
        payload_.resize(kPayload);
    }

    /// Feeds one pattern-payload DATA frame per seq; returns the live
    /// heap bytes the endpoint (and the hub's ack backlog) gained.
    std::int64_t feed(const std::vector<Seq>& seqs) {
        const std::int64_t before = live_bytes();
        for (const Seq seq : seqs) {
            pattern_fill(seq, payload_);
            frame_.clear();
            wire::encode_data_to(frame_, seq, payload_, wire::kFlagNone, wire::kNoStream,
                                 wire::Conn{});
            const wire::ViewResult view = wire::decode_view(frame_);
            endpoint_->handle_frame(view.frame());
        }
        return live_bytes() - before;
    }

    const NetEndpoint<C>& endpoint() const { return *endpoint_; }

private:
    ManualClock clock_;
    TimerWheel wheel_;
    InprocHub hub_{16384, 16384};
    std::unique_ptr<Transport> transport_;
    sim::LatencyHistograms sink_;
    std::unique_ptr<NetEndpoint<C>> endpoint_;
    std::vector<std::uint8_t> frame_;
    std::vector<std::uint8_t> payload_;
};

std::vector<Seq> run(Seq first, Seq n) {
    std::vector<Seq> seqs(n);
    for (Seq i = 0; i < n; ++i) seqs[i] = first + i;
    return seqs;
}

TEST(Footprint, RejectedBeyondWindowFramesLeaveNoTrace) {
    Receiver<Core> rx;
    rx.feed(run(0, 64));  // warm-up
    const std::vector<Seq> in_order = run(64, kFrames);
    // CRC-valid frames the core must reject: every seq >= nr + w.
    const std::vector<Seq> beyond = run(64 + kFrames + 16, kFrames);
    const std::int64_t control = rx.feed(in_order);
    const std::int64_t rejected = rx.feed(beyond);
    EXPECT_EQ(rx.endpoint().delivered(), 64 + kFrames);
    EXPECT_EQ(rx.endpoint().rx_metrics().decode_errors, kFrames);
    EXPECT_LE(rejected, control + kFlat) << "control " << control;
}

/// Replays every delivered seq into a receiver that re-acks but never
/// buffers them (go-back-N discards, selective repeat re-acks).
template <typename C>
void expect_replay_flat(typename C::Options options = {}) {
    Receiver<C> rx(runtime::AckPolicy::eager(), options);
    rx.feed(run(0, 64));
    const std::vector<Seq> in_order = run(64, kFrames);
    const std::int64_t control = rx.feed(in_order);
    const std::int64_t replay = rx.feed(in_order);
    EXPECT_EQ(rx.endpoint().delivered(), 64 + kFrames);
    EXPECT_EQ(rx.endpoint().rx_metrics().duplicates, kFrames);
    EXPECT_EQ(rx.endpoint().payload_mismatches(), 0u);
    EXPECT_LE(replay, control + kFlat) << "control " << control;
}

TEST(Footprint, DeliveredReplayIntoGoBackNLeavesNoTrace) {
    expect_replay_flat<baselines::GbnCore>();
}

TEST(Footprint, DeliveredReplayIntoSelectiveRepeatLeavesNoTrace) {
    expect_replay_flat<baselines::SrCore>();
}

TEST(Footprint, DuplicatesOfDeliveredUnackedLeaveNoTrace) {
    // Under batch(8, 1 s) on a clock that never moves, each run of 8
    // in-order arrivals is one ack.  Duplicates of the first 7 arrive
    // while they are delivered but not yet acknowledged -- seqs in
    // [nr, vr), which block ack answers with no dup-ack at all.
    Receiver<Core> rx(runtime::AckPolicy::batch(8, 1 * kSecond));
    constexpr Seq kRounds = 700;  // 4,900 duplicates
    std::vector<Seq> control;
    std::vector<Seq> with_dups;
    for (Seq r = 0; r < kRounds; ++r) {
        const Seq base = 64 + 8 * r;
        for (Seq k = 0; k < 8; ++k) control.push_back(base + k);
        const Seq dup_base = 64 + 8 * (kRounds + r);
        for (Seq k = 0; k < 7; ++k) with_dups.push_back(dup_base + k);
        for (Seq k = 0; k < 7; ++k) with_dups.push_back(dup_base + k);
        with_dups.push_back(dup_base + 7);
    }
    rx.feed(run(0, 64));
    const std::int64_t in_order = rx.feed(control);
    const std::int64_t dups = rx.feed(with_dups);
    EXPECT_EQ(rx.endpoint().delivered(), 64 + 2 * 8 * kRounds);
    EXPECT_EQ(rx.endpoint().rx_metrics().acks_sent, rx.endpoint().delivered() / 8);
    EXPECT_EQ(rx.endpoint().payload_mismatches(), 0u);
    EXPECT_LE(dups, in_order + kFlat) << "control " << in_order;
}

TEST(Footprint, OpenEndedLinkHeapFlatInPayloadCount) {
    // A DES ReliableLink is open-ended (kUnboundedCount): its driver's
    // per-message state must stay window-sized however long it runs.
    sim::Simulator sim;
    link::ReliableLink link(sim, {.w = 16, .loss = 0.02, .seed = 5});
    std::uint64_t delivered = 0;
    link.set_on_deliver([&](std::span<const std::uint8_t>) { ++delivered; });
    const std::vector<std::uint8_t> payload(64, 0x5a);
    const auto pump_to = [&](std::uint64_t total) {
        while (delivered < total) {
            for (int i = 0; i < 100; ++i) link.send(payload);
            sim.run();
        }
        EXPECT_TRUE(link.idle());
        return live_bytes();
    };
    const std::int64_t at_10k = pump_to(10'000);
    const std::int64_t at_100k = pump_to(100'000);
    EXPECT_EQ(delivered, 100'000u);
    EXPECT_LE(at_100k - at_10k, kFlat) << "at 10k " << at_10k;
}

}  // namespace
}  // namespace bacp::net
