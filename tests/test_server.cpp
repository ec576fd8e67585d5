// Multi-session net::Server over the InprocHub star fabric, driven by a
// ManualClock so every run is exactly reproducible: session lifecycle
// (open on first frame, epoch reset, stale-epoch drops, idle eviction,
// capacity rejection), demux error accounting, per-session impairment
// seeding, and the supporting containers (PayloadStash, TimerWheel under
// session churn vs a multimap oracle).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "ba/engine_core.hpp"
#include "baselines/engine_cores.hpp"
#include "net/client_fleet.hpp"
#include "net/clock.hpp"
#include "net/inproc_hub.hpp"
#include "net/net_engine.hpp"
#include "net/payload_stash.hpp"
#include "net/server.hpp"
#include "net/transport.hpp"
#include "wire/buffer.hpp"
#include "wire/codec.hpp"
#include "wire/crc32.hpp"

namespace bacp::net {
namespace {

using Core = ba::EngineCore<ba::Sender, ba::Receiver>;

// ---- rig ---------------------------------------------------------------

/// One client endpoint: its hub ring, its wheel on the shared clock, and
/// a NetEndpoint tagged with its connection identity.
struct Client {
    std::unique_ptr<Transport> transport;
    std::unique_ptr<TimerWheel> wheel;
    std::unique_ptr<NetEndpoint<Core>> sender;
};

NetConfig client_config(Seq count, wire::Conn conn = {}) {
    NetConfig cfg;
    cfg.w = 4;
    cfg.count = count;
    cfg.seed = 11;
    cfg.payload_size = 64;
    cfg.conn = conn;
    return cfg;
}

Client make_client(InprocHub& hub, ManualClock& clock, const NetConfig& cfg) {
    Client c;
    c.transport = hub.make_client();
    c.wheel = std::make_unique<TimerWheel>(clock);
    c.sender = std::make_unique<NetEndpoint<Core>>(cfg, typename Core::Options{}, *c.wheel,
                                                 *c.transport);
    c.sender->start();
    return c;
}

ServerConfig server_config() {
    ServerConfig cfg;
    cfg.session.w = 4;
    cfg.session.seed = 11;
    cfg.session.payload_size = 64;
    cfg.session.rx_count = 1 << 20;  // receivers run open-ended; senders decide length
    return cfg;
}

/// Runs clients and server to quiescence: drain all work at the current
/// instant, then jump the shared clock to the earliest armed deadline,
/// until every sender is done or no deadline at or before \p deadline
/// remains.
void drive(ManualClock& clock, Server<Core>& server, std::vector<Client*> clients,
           SimTime deadline = 120 * kSecond) {
    for (;;) {
        for (;;) {
            std::size_t work = server.poll();
            for (Client* c : clients) work += c->sender->poll();
            if (work == 0) break;
        }
        bool all_done = true;
        for (Client* c : clients) all_done = all_done && c->sender->done();
        if (all_done) return;
        std::optional<SimTime> next;
        const auto consider = [&next](std::optional<SimTime> d) {
            if (d && (!next || *d < *next)) next = d;
        };
        for (std::size_t i = 0; i < server.shard_count(); ++i) {
            consider(server.shard_wheel(i).next_deadline());
        }
        for (Client* c : clients) consider(c->sender->wheel().next_deadline());
        if (!next || *next > deadline) return;
        clock.advance_to(*next);
    }
}

std::vector<Client*> raw(std::vector<Client>& clients) {
    std::vector<Client*> ptrs;
    for (Client& c : clients) ptrs.push_back(&c);
    return ptrs;
}

/// Hand-encodes a DATA frame and pushes it through \p t as one datagram.
void inject_data(Transport& t, Seq seq, wire::Conn conn) {
    std::vector<std::uint8_t> frame;
    const std::uint8_t payload[] = {1, 2, 3};
    wire::encode_data_to(frame, seq, payload, wire::kFlagNone, wire::kNoStream, conn);
    const std::span<const std::uint8_t> batch[] = {std::span<const std::uint8_t>{frame}};
    t.send_batch(batch);
}

// ---- lifecycle ---------------------------------------------------------

TEST(Server, MultiSessionTransfersComplete) {
    ManualClock clock;
    InprocHub hub;
    Server<Core> server(server_config(), {}, clock, {&hub.server()});

    constexpr Seq kCount = 30;
    constexpr std::size_t kSessions = 8;
    std::vector<Client> clients;
    for (std::size_t i = 0; i < kSessions; ++i) {
        clients.push_back(make_client(
            hub, clock, client_config(kCount, wire::Conn{static_cast<Seq>(i + 1), 1})));
    }

    drive(clock, server, raw(clients));

    for (Client& c : clients) EXPECT_TRUE(c.sender->done());
    EXPECT_EQ(server.session_count(), kSessions);
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.sessions_opened, kSessions);
    EXPECT_EQ(stats.decode_errors, 0u);

    for (const SessionView& v : server.sessions()) {
        EXPECT_EQ(v.epoch, 1u);
        EXPECT_EQ(v.delivered, kCount);
        EXPECT_EQ(v.bytes_delivered, kCount * 64u);
        EXPECT_EQ(v.payload_mismatches, 0u);
        EXPECT_EQ(v.protocol.delivered, kCount);
    }

    // Aggregate protocol view sums the per-session counters.
    EXPECT_EQ(server.protocol_metrics().delivered, kCount * kSessions);
    // Egress went through the shared socket as addressed batches.
    const Metrics transport = server.transport_metrics();
    EXPECT_GT(transport.datagrams_sent, 0u);
    EXPECT_GE(transport.datagrams_received, kCount * kSessions);
}

TEST(Server, ProtocolMetricsSumEverySourcingSession) {
    // Duplex sessions: each one sinks its client's transfer and sources
    // one of its own back.  The aggregate must carry every session's
    // sending-half counters, not only the first session's.
    ManualClock clock;
    InprocHub hub;
    constexpr Seq kCount = 12;
    constexpr Seq kBack = 9;
    constexpr std::size_t kSessions = 3;
    ServerConfig cfg = server_config();
    cfg.session.count = kBack;
    Server<Core> server(cfg, {}, clock, {&hub.server()});
    std::vector<Client> clients;
    for (std::size_t i = 0; i < kSessions; ++i) {
        NetConfig c = client_config(kCount, wire::Conn{static_cast<Seq>(i + 1), 1});
        c.rx_count = kBack;
        clients.push_back(make_client(hub, clock, c));
    }
    drive(clock, server, raw(clients));
    for (const Client& c : clients) {
        EXPECT_TRUE(c.sender->done());
        EXPECT_EQ(c.sender->delivered(), kBack);
    }

    sim::Metrics sum;
    for (const SessionView& v : server.sessions()) sum.add_counters_from(v.protocol);
    const sim::Metrics total = server.protocol_metrics();
    EXPECT_EQ(total.data_new, kBack * kSessions);
    // The shards' sinks hold every sourced message's ack latency.
    EXPECT_EQ(server.latency().ack.count(), kBack * kSessions);
    const auto totals = total.fields();
    const auto sums = sum.fields();
    for (std::size_t i = 0; i < totals.size(); ++i) {
        EXPECT_EQ(totals[i].value, sums[i].value) << totals[i].name;
    }
}

TEST(Server, UntaggedV1PeerMapsToConnZeroAndGetsV1Replies) {
    ManualClock clock;
    InprocHub hub;
    Server<Core> server(server_config(), {}, clock, {&hub.server()});

    // Default NetConfig: untagged frames, the pre-multiplexing wire format.
    std::vector<Client> clients;
    clients.push_back(make_client(hub, clock, client_config(12)));

    drive(clock, server, raw(clients));

    EXPECT_TRUE(clients[0].sender->done());  // acks decoded fine => v1 round trip
    ASSERT_EQ(server.session_count(), 1u);
    const std::vector<SessionView> views = server.sessions();
    EXPECT_EQ(views[0].conn, 0u);
    EXPECT_EQ(views[0].epoch, 0u);
    EXPECT_EQ(views[0].delivered, 12u);
}

TEST(Server, EpochBumpResetsSessionAndStaleEpochFramesDrop) {
    ManualClock clock;
    InprocHub hub;
    Server<Core> server(server_config(), {}, clock, {&hub.server()});

    // First incarnation: conn 7, epoch 1.
    Client a = make_client(hub, clock, client_config(10, wire::Conn{7, 1}));
    drive(clock, server, {&a});
    ASSERT_TRUE(a.sender->done());
    ASSERT_EQ(server.sessions()[0].delivered, 10u);

    // "Restart" the peer: same transport (same source address), fresh
    // sender with a bumped epoch.  Without the reset, its seq 0..4 would
    // be swallowed as duplicates of the first incarnation.
    a.sender.reset();
    a.wheel = std::make_unique<TimerWheel>(clock);
    a.sender = std::make_unique<NetEndpoint<Core>>(client_config(5, wire::Conn{7, 2}),
                                                 typename Core::Options{}, *a.wheel,
                                                 *a.transport);
    a.sender->start();
    drive(clock, server, {&a});
    EXPECT_TRUE(a.sender->done());

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.sessions_opened, 1u);
    EXPECT_EQ(stats.sessions_reset, 1u);
    ASSERT_EQ(server.session_count(), 1u);
    const SessionView view = server.sessions()[0];
    EXPECT_EQ(view.conn, 7u);
    EXPECT_EQ(view.epoch, 2u);
    EXPECT_EQ(view.delivered, 5u);  // fresh driver state, not 10 + 5

    // A late frame from the dead incarnation must be dropped, not fed to
    // the new driver as a duplicate.
    inject_data(*a.transport, 0, wire::Conn{7, 1});
    server.poll();
    EXPECT_EQ(server.stats().stale_epoch_drops, 1u);
    EXPECT_EQ(server.sessions()[0].delivered, 5u);
}

TEST(Server, MidWindowCrashThenEpochRejoinDeliversExactlyOnce) {
    ManualClock clock;
    InprocHub hub;
    Server<Core> server(server_config(), {}, clock, {&hub.server()});

    // First incarnation: conn 9, epoch 1, intends 24 messages but dies
    // mid-window -- un-acked frames still in flight, all soft state gone.
    Client a = make_client(hub, clock, client_config(24, wire::Conn{9, 1}));
    while (server.protocol_metrics().delivered < 12) {
        for (;;) {
            const std::size_t work = server.poll() + a.sender->poll();
            if (work == 0 || server.protocol_metrics().delivered >= 12) break;
        }
        if (server.protocol_metrics().delivered >= 12) break;
        std::optional<SimTime> next;
        const auto consider = [&next](std::optional<SimTime> d) {
            if (d && (!next || *d < *next)) next = d;
        };
        for (std::size_t i = 0; i < server.shard_count(); ++i) {
            consider(server.shard_wheel(i).next_deadline());
        }
        consider(a.sender->wheel().next_deadline());
        ASSERT_TRUE(next.has_value());
        clock.advance_to(*next);
    }
    ASSERT_FALSE(a.sender->done());  // the cut landed mid-transfer

    // The crash keeps the transport (same source address), so whatever
    // the dead incarnation still had in the fabric stays there for the
    // server's stale-epoch filter.
    a.sender.reset();
    a.wheel = std::make_unique<TimerWheel>(clock);
    a.sender = std::make_unique<NetEndpoint<Core>>(client_config(16, wire::Conn{9, 2}),
                                                 typename Core::Options{}, *a.wheel,
                                                 *a.transport);
    a.sender->start();
    drive(clock, server, {&a});
    EXPECT_TRUE(a.sender->done());

    // Rejoin was an in-place reset, not a second session, and the second
    // incarnation's transfer is exactly-once: its own 16, no duplicates
    // carried over, byte-verified payloads.
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.sessions_opened, 1u);
    EXPECT_EQ(stats.sessions_reset, 1u);
    ASSERT_EQ(server.session_count(), 1u);
    const SessionView view = server.sessions()[0];
    EXPECT_EQ(view.conn, 9u);
    EXPECT_EQ(view.epoch, 2u);
    EXPECT_EQ(view.delivered, 16u);
    EXPECT_EQ(view.payload_mismatches, 0u);
}

TEST(Server, IdleEvictionCancelsAllSessionTimers) {
    ServerConfig cfg = server_config();
    cfg.idle_timeout = 100 * kMillisecond;
    cfg.sweep_interval = 50 * kMillisecond;
    // Park the ack far in the future so each session holds a live flush
    // timer on the shard wheel when the sweep hits it.
    cfg.session.ack_policy = runtime::AckPolicy::delayed(10 * kSecond);

    ManualClock clock;
    InprocHub hub;
    Server<Core> server(cfg, {}, clock, {&hub.server()});

    std::vector<Client> clients;
    for (Seq id = 1; id <= 3; ++id) {
        clients.push_back(make_client(hub, clock, client_config(100, wire::Conn{id, 1})));
    }
    // One drain at t=0: sessions open, data lands, flush timers arm.
    while (server.poll() + clients[0].sender->poll() + clients[1].sender->poll() +
               clients[2].sender->poll() >
           0) {
    }
    ASSERT_EQ(server.session_count(), 3u);
    ASSERT_GT(server.shard_wheel(0).armed(), 0u);

    // Silence past the idle horizon; the sweep must tear the sessions
    // down and their destructors must leave the wheel empty -- an evicted
    // session may never fire a timer into freed state.
    clock.advance(200 * kMillisecond);
    server.poll();
    EXPECT_EQ(server.session_count(), 0u);
    EXPECT_EQ(server.stats().sessions_evicted, 3u);
    EXPECT_EQ(server.shard_wheel(0).armed(), 0u);
}

TEST(Server, RejectsSessionsBeyondCapacity) {
    ServerConfig cfg = server_config();
    cfg.max_sessions = 2;
    cfg.evict_on_pressure = false;  // shed, don't evict

    ManualClock clock;
    InprocHub hub;
    Server<Core> server(cfg, {}, clock, {&hub.server()});

    std::vector<Client> clients;
    for (Seq id = 1; id <= 3; ++id) {
        clients.push_back(make_client(hub, clock, client_config(8, wire::Conn{id, 1})));
    }
    drive(clock, server, raw(clients), /*deadline=*/2 * kSecond);

    EXPECT_TRUE(clients[0].sender->done());
    EXPECT_TRUE(clients[1].sender->done());
    EXPECT_FALSE(clients[2].sender->done());  // shed, never opened
    EXPECT_EQ(server.session_count(), 2u);
    EXPECT_GT(server.stats().sessions_rejected, 0u);
}

TEST(Server, PressureEvictsLeastRecentlyActiveSession) {
    ServerConfig cfg = server_config();
    cfg.max_sessions = 2;  // evict_on_pressure stays at its true default

    ManualClock clock;
    InprocHub hub;
    Server<Core> server(cfg, {}, clock, {&hub.server()});
    const std::unique_ptr<Transport> a = hub.make_client();
    const std::unique_ptr<Transport> b = hub.make_client();
    const std::unique_ptr<Transport> c = hub.make_client();

    // Stagger activity so recency is unambiguous: a is the oldest.
    inject_data(*a, 1, wire::Conn{1, 1});
    server.poll();
    clock.advance(10 * kMillisecond);
    inject_data(*b, 1, wire::Conn{2, 1});
    server.poll();
    clock.advance(10 * kMillisecond);
    inject_data(*c, 1, wire::Conn{3, 1});
    server.poll();

    EXPECT_EQ(server.session_count(), 2u);
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.sessions_opened, 3u);
    EXPECT_EQ(stats.sessions_pressure_evicted, 1u);
    EXPECT_EQ(stats.sessions_rejected, 0u);
    // The victim was the least recently active (conn 1); 2 and 3 remain.
    std::vector<Seq> conns;
    for (const SessionView& v : server.sessions()) conns.push_back(v.conn);
    std::sort(conns.begin(), conns.end());
    EXPECT_EQ(conns, (std::vector<Seq>{2, 3}));
    // Eviction cancelled the victim's timers; no stale closure can fire.
    clock.advance(10 * kSecond);
    server.poll();
}

TEST(Server, ArenaBudgetCapsSessionsBelowMaxSessions) {
    ServerConfig cfg = server_config();
    cfg.max_sessions = 1 << 16;
    cfg.arena_budget = 1;  // floor: budget always admits at least one

    ManualClock clock;
    InprocHub hub;
    Server<Core> server(cfg, {}, clock, {&hub.server()});
    EXPECT_EQ(server.session_cap(), 1u);

    const std::unique_ptr<Transport> a = hub.make_client();
    const std::unique_ptr<Transport> b = hub.make_client();
    inject_data(*a, 1, wire::Conn{1, 1});
    server.poll();
    clock.advance(kMillisecond);
    inject_data(*b, 1, wire::Conn{2, 1});
    server.poll();

    EXPECT_EQ(server.session_count(), 1u);
    EXPECT_EQ(server.stats().sessions_pressure_evicted, 1u);

    // No budget: the cap is max_sessions itself.
    Server<Core> uncapped(server_config(), {}, clock, {&hub.server()});
    EXPECT_EQ(uncapped.session_cap(), ServerConfig{}.max_sessions);
}

TEST(ClientFleet, ManySessionsOverFewSocketsCompleteWithinAdmissionWindow) {
    ManualClock clock;
    InprocHub hub;
    Server<Core> server(server_config(), {}, clock, {&hub.server()});

    FleetConfig fcfg;
    fcfg.session = client_config(12);
    fcfg.sessions = 24;
    fcfg.max_active = 8;

    const PeerAddr fleet_addr = hub.next_client_addr();  // s0, session 0's socket
    const std::unique_ptr<Transport> s0 = hub.make_client();
    const std::unique_ptr<Transport> s1 = hub.make_client();
    const std::unique_ptr<Transport> s2 = hub.make_client();
    ClientFleet<Core> fleet(fcfg, {}, clock, {s0.get(), s1.get(), s2.get()});

    std::size_t max_active_seen = 0;
    while (!fleet.done()) {
        for (;;) {
            const std::size_t work = server.poll() + fleet.poll();
            max_active_seen = std::max(max_active_seen, fleet.active_count());
            if (work == 0) break;
        }
        if (fleet.done()) break;
        std::optional<SimTime> next = fleet.wheel().next_deadline();
        for (std::size_t i = 0; i < server.shard_count(); ++i) {
            const auto d = server.shard_wheel(i).next_deadline();
            if (d && (!next || *d < *next)) next = d;
        }
        ASSERT_TRUE(next) << "fleet stalled with no armed deadline";
        ASSERT_LT(*next, 120 * kSecond);
        clock.advance_to(*next);
    }

    const FleetStats& stats = fleet.stats();
    EXPECT_EQ(stats.sessions_started, 24u);
    EXPECT_EQ(fleet.finished_count(), 24u);
    EXPECT_LE(max_active_seen, 8u);  // the ramp never exceeds the window
    EXPECT_EQ(stats.decode_errors, 0u);
    EXPECT_EQ(stats.unknown_conn_drops, 0u);
    // The fleet's one sink holds every session's ack latency.
    EXPECT_EQ(fleet.latency().ack.count(), 24u * 12u);
    // Finished sessions are freed, their counters kept in the total.
    const sim::Metrics proto = fleet.protocol_metrics();
    EXPECT_EQ(proto.data_new, 24u * 12u);
    EXPECT_GT(proto.acks_received, 0u);

    // A late ack for a finished (freed) session is counted and dropped.
    std::vector<std::uint8_t> late;
    wire::encode_ack_to(late, 0, 11, wire::kFlagNone, wire::kNoStream, wire::Conn{fcfg.first_conn, 1});
    const std::span<const std::uint8_t> one[] = {std::span<const std::uint8_t>{late}};
    const PeerAddr to[] = {fleet_addr};
    const std::uint64_t drops = fleet.stats().idle_conn_drops;
    hub.server().send_batch_to(one, to);
    fleet.poll();
    EXPECT_EQ(fleet.stats().idle_conn_drops, drops + 1);

    // Every session landed, demuxed, and delivered fully at the server.
    EXPECT_EQ(server.stats().sessions_opened, 24u);
    EXPECT_EQ(server.session_count(), 24u);
    for (const SessionView& v : server.sessions()) {
        EXPECT_EQ(v.delivered, 12u);
        EXPECT_EQ(v.payload_mismatches, 0u);
    }
}

// ---- receive-batch ack coalescing --------------------------------------
//
// Frames injected before one server.poll() reach the shard in one receive
// batch; the replies are read back in wire order.

/// One frame the server sent a client, as the client decodes it (a
/// NAK's seq in lo and hi).
struct Reply {
    wire::FrameType type = wire::FrameType::Ack;
    Seq lo = 0;
    Seq hi = 0;
    Seq epoch = 0;
    friend bool operator==(const Reply&, const Reply&) = default;
};

Reply ack(Seq lo, Seq hi, Seq epoch = 1) { return {wire::FrameType::Ack, lo, hi, epoch}; }

std::vector<Reply> replies(Transport& t) {
    RecvBatch batch(64, kMaxDatagram);
    std::vector<Reply> out;
    for (;;) {
        const std::size_t n = t.recv_batch(batch);
        for (std::size_t i = 0; i < n; ++i) {
            const wire::ViewResult r = wire::decode_view(batch[i]);
            EXPECT_TRUE(r.ok());
            const wire::FrameView& f = r.frame();
            const bool nak = f.type == wire::FrameType::Nak;
            out.push_back({f.type, nak ? f.seq : f.lo, nak ? f.seq : f.hi, f.conn.epoch});
        }
        if (n < batch.capacity()) return out;
    }
}

/// Acks decided = blocks egressed + blocks merged away (nothing is
/// deferred here: piggyback is off and every batch has closed).
void expect_acks_accounted(const SessionView& v) {
    EXPECT_EQ(v.protocol.acks_sent + v.protocol.dup_acks,
              v.standalone_acks + v.piggybacked + v.acks_coalesced);
}

template <typename C>
std::vector<Reply> replies_to_one_batch(const std::vector<Seq>& seqs, ServerConfig cfg,
                                        std::vector<SessionView>* views = nullptr) {
    ManualClock clock;
    InprocHub hub;
    Server<C> server(cfg, {}, clock, {&hub.server()});
    const std::unique_ptr<Transport> client = hub.make_client();
    for (const Seq seq : seqs) inject_data(*client, seq, wire::Conn{1, 1});
    server.poll();
    if (views != nullptr) *views = server.sessions();
    return replies(*client);
}

TEST(ServerAckBatching, InOrderWindowInOneBatchLeavesAsOneBlockAck) {
    constexpr Seq kW = 8;
    ServerConfig cfg = server_config();
    cfg.session.w = kW;
    std::vector<Seq> window;
    for (Seq seq = 0; seq < kW; ++seq) window.push_back(seq);

    std::vector<SessionView> views;
    EXPECT_EQ(replies_to_one_batch<Core>(window, cfg, &views), std::vector<Reply>{ack(0, kW - 1)});
    ASSERT_EQ(views.size(), 1u);
    // Every arrival was still an ack decision; the frames merged below.
    EXPECT_EQ(views[0].protocol.acks_sent, kW);
    EXPECT_EQ(views[0].standalone_acks, 1u);
    EXPECT_EQ(views[0].acks_coalesced, kW - 1);
    expect_acks_accounted(views[0]);

    // Go-back-N's cumulative acks merge the same way (its sender reads hi).
    EXPECT_EQ(replies_to_one_batch<baselines::GbnCore>(window, cfg),
              std::vector<Reply>{ack(0, kW - 1)});

    // Selective repeat names single arrivals: one frame each, unmerged.
    std::vector<Reply> want;
    for (Seq seq = 0; seq < kW; ++seq) want.push_back(ack(seq, seq));
    EXPECT_EQ(replies_to_one_batch<baselines::SrCore>(window, cfg, &views), want);
    EXPECT_EQ(views[0].acks_coalesced, 0u);
    expect_acks_accounted(views[0]);
}

TEST(ServerAckBatching, DupAckMidBatchKeepsWireOrder) {
    // 0 and 1 merge; the re-sent 0 draws a dup-ack, which must leave
    // after the block it follows; 2 then starts a block of its own.
    std::vector<SessionView> views;
    const std::vector<Reply> got = replies_to_one_batch<Core>({0, 1, 0, 2}, server_config(), &views);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0], ack(0, 1));
    EXPECT_EQ(got[1].type, wire::FrameType::Ack);
    EXPECT_LE(got[1].hi, 1u);  // the dup-ack re-acknowledges the copy
    EXPECT_EQ(got[2], ack(2, 2));
    ASSERT_EQ(views.size(), 1u);
    EXPECT_EQ(views[0].protocol.dup_acks, 1u);
    expect_acks_accounted(views[0]);
}

TEST(ServerAckBatching, NakMidBatchKeepsWireOrder) {
    // 2 arrives beyond the gap at 1: the NAK for 1 must follow the block
    // [0, 0] decided before it, and the block 1 unlocks leaves after.
    ServerConfig cfg = server_config();
    cfg.session.enable_nak = true;
    cfg.session.nak_threshold = 1;
    const std::vector<Reply> got = replies_to_one_batch<Core>({0, 2, 1}, cfg);
    const std::vector<Reply> want = {ack(0, 0), {wire::FrameType::Nak, 1, 1, 1}, ack(1, 2)};
    EXPECT_EQ(got, want);
}

TEST(ServerAckBatching, EpochResetMidBatchClosesTheOldIncarnationsBlock) {
    ManualClock clock;
    InprocHub hub;
    Server<Core> server(server_config(), {}, clock, {&hub.server()});
    const std::unique_ptr<Transport> client = hub.make_client();
    inject_data(*client, 0, wire::Conn{7, 1});
    inject_data(*client, 1, wire::Conn{7, 1});
    inject_data(*client, 0, wire::Conn{7, 2});  // the peer restarted
    inject_data(*client, 1, wire::Conn{7, 2});
    server.poll();

    EXPECT_EQ(replies(*client), (std::vector<Reply>{ack(0, 1, 1), ack(0, 1, 2)}));
    EXPECT_EQ(server.stats().sessions_reset, 1u);
    ASSERT_EQ(server.session_count(), 1u);
    EXPECT_EQ(server.sessions()[0].delivered, 2u);

    // The next batch starts clean on the new incarnation.
    inject_data(*client, 2, wire::Conn{7, 2});
    server.poll();
    EXPECT_EQ(replies(*client), std::vector<Reply>{ack(2, 2, 2)});
}

TEST(ServerAckBatching, PressureEvictionMidBatchEmitsTheVictimsBlock) {
    ServerConfig cfg = server_config();
    cfg.max_sessions = 1;  // the second peer's first frame evicts the first
    ManualClock clock;
    InprocHub hub;
    Server<Core> server(cfg, {}, clock, {&hub.server()});
    const std::unique_ptr<Transport> a = hub.make_client();
    const std::unique_ptr<Transport> b = hub.make_client();
    inject_data(*a, 0, wire::Conn{1, 1});
    inject_data(*a, 1, wire::Conn{1, 1});
    inject_data(*b, 0, wire::Conn{2, 1});
    inject_data(*b, 1, wire::Conn{2, 1});
    inject_data(*b, 2, wire::Conn{2, 1});
    server.poll();

    EXPECT_EQ(server.stats().sessions_pressure_evicted, 1u);
    EXPECT_EQ(replies(*a), std::vector<Reply>{ack(0, 1)});
    EXPECT_EQ(replies(*b), std::vector<Reply>{ack(0, 2)});
    ASSERT_EQ(server.session_count(), 1u);
    EXPECT_EQ(server.sessions()[0].conn, 2u);

    // The first peer comes back and evicts the second while the
    // second's block is held in the same batch: the block leaves, and
    // the handle the evicted session left behind stays dead.
    inject_data(*b, 3, wire::Conn{2, 1});
    inject_data(*a, 0, wire::Conn{1, 1});
    server.poll();
    EXPECT_EQ(replies(*b), std::vector<Reply>{ack(3, 3)});
    EXPECT_EQ(replies(*a), std::vector<Reply>{ack(0, 0)});
    EXPECT_EQ(server.stats().sessions_pressure_evicted, 2u);
}

TEST(Server, SocketOwningConstructorBindsConfiguredShards) {
    ServerConfig cfg = server_config();
    cfg.shards = 2;
    cfg.port = 0;  // ephemeral

    SteadyClock clock;
    Server<Core> server(cfg, {}, clock);
    EXPECT_EQ(server.shard_count(), 2u);
    EXPECT_NE(server.port(), 0u);
    EXPECT_EQ(server.session_count(), 0u);
    server.poll();  // sockets are live and non-blocking
}

TEST(Server, CountsDecodeAndCrcErrorsAtDemux) {
    ManualClock clock;
    InprocHub hub;
    Server<Core> server(server_config(), {}, clock, {&hub.server()});
    const std::unique_ptr<Transport> t = hub.make_client();

    // Garbage bytes: a decode error that is not a CRC error.
    const std::uint8_t garbage[] = {0x00, 0x01, 0x02};
    const std::span<const std::uint8_t> gbatch[] = {std::span<const std::uint8_t>{garbage}};
    t->send_batch(gbatch);
    // A valid frame with one payload byte flipped: a CRC error.
    std::vector<std::uint8_t> frame;
    const std::uint8_t payload[] = {9, 9, 9, 9};
    wire::encode_data_to(frame, 0, payload, wire::kFlagNone, wire::kNoStream,
                         wire::Conn{1, 1});
    frame[frame.size() / 2] ^= 0xFF;
    const std::span<const std::uint8_t> fbatch[] = {std::span<const std::uint8_t>{frame}};
    t->send_batch(fbatch);

    server.poll();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.decode_errors, 2u);
    EXPECT_EQ(stats.crc_errors, 1u);
    EXPECT_EQ(server.session_count(), 0u);  // neither datagram opened a session
}

TEST(Server, MalformedConnTagVarintsCountAsDecodeErrorsNotSessions) {
    ManualClock clock;
    InprocHub hub;
    Server<Core> server(server_config(), {}, clock, {&hub.server()});
    const std::unique_ptr<Transport> t = hub.make_client();

    // Hand-assembled v2 frames whose trailing CRC is *valid*, so they
    // die in the conn-tag varint parser, not at the integrity check: a
    // truncated tag, an overlong (11-byte) varint, and the reserved
    // untagged sentinel as a conn id.  Each is a decode error; none may
    // open a session.
    const auto v2_frame = [](std::span<const std::uint8_t> tag) {
        std::vector<std::uint8_t> out;
        wire::BufWriter writer(out);
        writer.put_u8(wire::kMagic);
        writer.put_u8(wire::kVersion2);
        writer.put_u8(static_cast<std::uint8_t>(wire::FrameType::Data));
        writer.put_u8(wire::kFlagNone);
        writer.put_bytes(tag);
        writer.put_varint(0);  // seq
        writer.put_varint(0);  // empty payload
        const std::uint32_t crc =
            wire::crc32c(std::span<const std::uint8_t>(out.data(), out.size()));
        writer.put_u32(crc);
        return out;
    };
    const std::uint8_t truncated[] = {0x91};
    std::vector<std::uint8_t> overlong(11, 0x80);
    overlong.push_back(0x01);
    overlong.push_back(0x00);
    std::vector<std::uint8_t> sentinel;
    {
        wire::BufWriter w(sentinel);
        w.put_varint(wire::kNoConnId);
        w.put_varint(1);
    }
    for (const auto& frame : {v2_frame(truncated), v2_frame(overlong), v2_frame(sentinel)}) {
        const std::span<const std::uint8_t> batch[] = {std::span<const std::uint8_t>{frame}};
        t->send_batch(batch);
    }

    server.poll();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.decode_errors, 3u);
    EXPECT_EQ(stats.crc_errors, 0u);  // the CRCs were fine; the tags were not
    EXPECT_EQ(server.session_count(), 0u);
    EXPECT_EQ(stats.sessions_opened, 0u);
}

TEST(Server, ToJsonCarriesServerTransportAndSessionViews) {
    ManualClock clock;
    InprocHub hub;
    Server<Core> server(server_config(), {}, clock, {&hub.server()});
    std::vector<Client> clients;
    clients.push_back(make_client(hub, clock, client_config(6, wire::Conn{3, 1})));
    drive(clock, server, raw(clients));

    const std::string json = server.to_json();
    EXPECT_NE(json.find("\"server\":"), std::string::npos);
    EXPECT_NE(json.find("\"sessions_opened\":1"), std::string::npos);
    EXPECT_NE(json.find("\"transport\":"), std::string::npos);
    EXPECT_NE(json.find("\"sessions\":[{"), std::string::npos);
    EXPECT_NE(json.find("\"conn\":3"), std::string::npos);
    EXPECT_NE(json.find("\"delivered\":6"), std::string::npos);
}

// ---- per-session impairment seeding ------------------------------------

/// A session embedded among others must behave exactly like the same
/// session running alone: its impairer draws from mix_seed(base, conn),
/// not from a shared stream another session's traffic could perturb.
TEST(Server, ImpairmentSeedEquivalentToSingleSessionRun) {
    const auto run_session_metrics = [](const std::vector<Seq>& conns, Seq probe) {
        ServerConfig cfg = server_config();
        cfg.impair.loss = 0.25;  // ack-direction loss forces retransmits
        ManualClock clock;
        InprocHub hub;
        Server<Core> server(cfg, {}, clock, {&hub.server()});
        std::vector<Client> clients;
        for (const Seq conn : conns) {
            clients.push_back(make_client(hub, clock, client_config(20, wire::Conn{conn, 1})));
        }
        drive(clock, server, raw(clients));
        for (Client& c : clients) EXPECT_TRUE(c.sender->done());
        for (const SessionView& v : server.sessions()) {
            if (v.conn == probe) return std::make_pair(v.protocol, v.transport);
        }
        ADD_FAILURE() << "probe session missing";
        return std::make_pair(sim::Metrics{}, Metrics{});
    };

    const auto [multi_proto, multi_transport] = run_session_metrics({5, 9, 14}, 9);
    const auto [solo_proto, solo_transport] = run_session_metrics({9}, 9);

    EXPECT_EQ(multi_proto.to_json(), solo_proto.to_json());
    EXPECT_EQ(multi_transport.to_json(), solo_transport.to_json());
    EXPECT_GT(multi_transport.dropped, 0u);  // the adversary did bite
}

// ---- threaded shard loops ----------------------------------------------

// Real sockets, real threads: two reuseport shards each driven by their
// own run_threads() loop while the main thread polls four UDP clients.
// This is the test the TSan job leans on -- the shard loops, the shared
// SteadyClock, and the stop flag must all be race-clean.
TEST(Server, RunThreadsServesRealUdpClients) {
    constexpr Seq kCount = 64;
    constexpr std::size_t kClients = 4;

    SteadyClock clock;
    auto [shard_sockets, port] = make_reuseport_shards(0, 2);
    std::vector<AddressedTransport*> shard_ptrs;
    for (const auto& s : shard_sockets) shard_ptrs.push_back(s.get());

    ServerConfig scfg = server_config();
    // A generous explicit timeout: the derived default (~2x the link
    // lifetime) sits below thread-scheduling latency and would turn the
    // whole run into spurious retransmissions.
    scfg.session.link_lifetime = 1 * kMillisecond;
    scfg.session.timeout = 100 * kMillisecond;
    Server<Core> server(scfg, {}, clock, shard_ptrs);

    // RAII stop/join: if anything below throws (a BACP_ASSERT in a
    // client poll, a gtest ASSERT returning early), the server threads
    // are still wound down before the std::thread is destroyed --
    // otherwise the joinable destructor terminates the process and eats
    // the actual failure message.
    struct ServerRun {
        std::atomic<bool> stop{false};
        std::thread thread;
        explicit ServerRun(Server<Core>& server)
            : thread([this, &server] { server.run_threads(stop); }) {}
        ~ServerRun() {
            stop.store(true);
            if (thread.joinable()) thread.join();
        }
    } srv(server);

    struct UdpClient {
        std::unique_ptr<UdpTransport> transport;
        std::unique_ptr<TimerWheel> wheel;
        std::unique_ptr<NetEndpoint<Core>> sender;
    };
    std::vector<UdpClient> clients;
    for (std::size_t i = 0; i < kClients; ++i) {
        NetConfig cfg = client_config(kCount, wire::Conn{static_cast<Seq>(i + 1), 1});
        cfg.link_lifetime = 1 * kMillisecond;
        cfg.timeout = 100 * kMillisecond;
        UdpClient c;
        c.transport = std::make_unique<UdpTransport>();
        c.transport->connect_peer(port);
        c.wheel = std::make_unique<TimerWheel>(clock);
        c.sender = std::make_unique<NetEndpoint<Core>>(cfg, typename Core::Options{},
                                                     *c.wheel, *c.transport);
        clients.push_back(std::move(c));
    }
    int client_fds[kClients];
    for (std::size_t i = 0; i < kClients; ++i) client_fds[i] = clients[i].transport->fd();
    for (UdpClient& c : clients) c.sender->start();

    const SimTime deadline = clock.now() + 30 * kSecond;
    for (;;) {
        std::size_t done = 0;
        std::size_t work = 0;
        for (UdpClient& c : clients) {
            work += c.sender->poll();
            if (c.sender->done()) ++done;
        }
        if (done == clients.size()) break;
        ASSERT_LT(clock.now(), deadline) << "threaded transfer did not complete";
        if (work == 0) wait_readable(client_fds, kMillisecond);
    }
    srv.stop.store(true);
    srv.thread.join();

    EXPECT_EQ(server.stats().sessions_opened, kClients);
    EXPECT_EQ(server.session_count(), kClients);
    const sim::Metrics proto = server.protocol_metrics();
    EXPECT_EQ(proto.delivered, static_cast<std::uint64_t>(kClients) * kCount);
    for (UdpClient& c : clients) {
        EXPECT_EQ(c.sender->latency().ack.count(), kCount);
    }
}

// ---- PayloadStash ------------------------------------------------------

std::vector<std::uint8_t> bytes_of(std::initializer_list<std::uint8_t> init) {
    return std::vector<std::uint8_t>(init);
}

TEST(PayloadStash, PutFindEraseRoundTrip) {
    PayloadStash stash;
    EXPECT_TRUE(stash.empty());
    EXPECT_EQ(stash.find(3), nullptr);

    stash.put(3, bytes_of({1, 2, 3}));
    stash.put(4, bytes_of({4}));
    EXPECT_EQ(stash.size(), 2u);
    ASSERT_NE(stash.find(3), nullptr);
    EXPECT_EQ(*stash.find(3), bytes_of({1, 2, 3}));
    ASSERT_NE(stash.find(4), nullptr);
    EXPECT_EQ(*stash.find(4), bytes_of({4}));

    EXPECT_TRUE(stash.erase(3));
    EXPECT_EQ(stash.find(3), nullptr);
    EXPECT_FALSE(stash.erase(3));  // already gone
    EXPECT_EQ(stash.size(), 1u);
}

TEST(PayloadStash, SameKeyOverwritesLatestWins) {
    PayloadStash stash;
    stash.put(7, bytes_of({1}));
    stash.put(7, bytes_of({2, 2}));
    EXPECT_EQ(stash.size(), 1u);
    EXPECT_EQ(*stash.find(7), bytes_of({2, 2}));
}

TEST(PayloadStash, KeysAWindowApartShareOneSlot) {
    PayloadStash stash(4);  // w = 4: keys k and k+4 map to one slot
    const Seq a = 1, b = 1 + 4;
    stash.put(a, bytes_of({0xA}));
    stash.put(b, bytes_of({0xB}));
    // The older key is a whole window back, so it is dead: its tag no
    // longer matches and it reads as absent.
    EXPECT_EQ(stash.find(a), nullptr);
    ASSERT_NE(stash.find(b), nullptr);
    EXPECT_EQ(*stash.find(b), bytes_of({0xB}));
    EXPECT_EQ(stash.size(), 1u);
    EXPECT_FALSE(stash.erase(a));
    EXPECT_TRUE(stash.erase(b));
    EXPECT_TRUE(stash.empty());
}

TEST(PayloadStash, FullWindowFitsFixedSlots) {
    PayloadStash stash(8);
    EXPECT_EQ(stash.capacity(), 8u);
    // Everything buffered beyond vr = 20: keys (20, 28).
    for (Seq k = 21; k < 28; ++k) stash.put(k, bytes_of({static_cast<std::uint8_t>(k)}));
    // A residue core (domain 2w = 16) wrapping its domain: vr = 12,
    // buffered true seqs 13..19 travel as 13, 14, 15, 0, 1, 2, 3.
    PayloadStash residues(8);
    for (Seq t = 13; t < 20; ++t) residues.put(t % 16, bytes_of({static_cast<std::uint8_t>(t)}));
    EXPECT_EQ(stash.capacity(), 8u);
    EXPECT_EQ(stash.size(), 7u);
    EXPECT_EQ(residues.size(), 7u);
    for (Seq k = 21; k < 28; ++k) {
        ASSERT_NE(stash.find(k), nullptr) << k;
        EXPECT_EQ(stash.find(k)->at(0), static_cast<std::uint8_t>(k));
    }
    for (Seq t = 13; t < 20; ++t) {
        ASSERT_NE(residues.find(t % 16), nullptr) << t;
        EXPECT_EQ(residues.find(t % 16)->at(0), static_cast<std::uint8_t>(t));
    }
}

TEST(PayloadStash, RandomOpsAgreeWithUnorderedMapOracle) {
    constexpr Seq kW = 8;
    PayloadStash stash(kW);
    std::unordered_map<Seq, std::vector<std::uint8_t>> oracle;
    std::mt19937_64 rng(0xBACBAC);
    // The stash's contract: live keys lie in one window [base, base + w)
    // that only slides forward, and the receiver consumes (erases) each
    // key as the window passes it -- in-order delivery.
    Seq base = 0;
    for (int op = 0; op < 20000; ++op) {
        const Seq key = base + rng() % kW;
        switch (rng() % 4) {
            case 0: {
                std::vector<std::uint8_t> payload(rng() % 16);
                for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng());
                stash.put(key, payload);
                oracle[key] = std::move(payload);
                break;
            }
            case 1: {
                const auto* got = stash.find(key);
                const auto it = oracle.find(key);
                if (it == oracle.end()) {
                    ASSERT_EQ(got, nullptr) << "op " << op << " key " << key;
                } else {
                    ASSERT_NE(got, nullptr) << "op " << op << " key " << key;
                    ASSERT_EQ(*got, it->second) << "op " << op << " key " << key;
                }
                break;
            }
            case 2:
                ASSERT_EQ(stash.erase(key), oracle.erase(key) > 0)
                    << "op " << op << " key " << key;
                break;
            default: {
                const Seq next = base + 1 + rng() % 3;
                for (; base < next; ++base) {
                    ASSERT_EQ(stash.erase(base), oracle.erase(base) > 0)
                        << "op " << op << " key " << base;
                }
                break;
            }
        }
        ASSERT_EQ(stash.size(), oracle.size());
    }
    EXPECT_EQ(stash.capacity(), kW);
}

// ---- TimerWheel under multi-session churn ------------------------------

/// Thousands of timers from many "sessions" scheduled, cancelled in
/// blocks (eviction), and fired in bursts must match a multimap oracle's
/// deadline-then-FIFO order exactly.
TEST(TimerWheel, MultiSessionChurnMatchesMultimapOracle) {
    ManualClock clock;
    TimerWheel wheel(clock);

    struct OracleEntry {
        int token;
        TimerId id;
    };
    std::multimap<SimTime, OracleEntry> oracle;  // equal keys keep insert order
    std::vector<int> fired;
    std::vector<int> expected;
    std::mt19937_64 rng(0x5E55104);

    constexpr int kSessions = 40;
    std::vector<std::vector<std::pair<int, TimerId>>> per_session(kSessions);

    int next_token = 0;
    const auto schedule_one = [&](int session) {
        const SimTime delay = static_cast<SimTime>(rng() % 5000);
        const int token = next_token++;
        const TimerId id =
            wheel.schedule_after(delay, [&fired, token] { fired.push_back(token); });
        oracle.emplace(clock.now() + delay, OracleEntry{token, id});
        per_session[session].push_back({token, id});
    };

    for (int round = 0; round < 200; ++round) {
        // Churn: a few new timers on random sessions.
        for (int i = 0; i < 10; ++i) schedule_one(static_cast<int>(rng() % kSessions));
        // Occasionally evict a session: cancel everything it owns.
        if (round % 7 == 3) {
            const int victim = static_cast<int>(rng() % kSessions);
            for (const auto& [token, id] : per_session[victim]) {
                wheel.cancel(id);
                for (auto it = oracle.begin(); it != oracle.end(); ++it) {
                    if (it->second.token == token) {
                        oracle.erase(it);
                        break;
                    }
                }
            }
            per_session[victim].clear();
        }
        // Advance and fire; the oracle pops everything due in key order
        // (multimap preserves insertion order among equal deadlines --
        // the FIFO tiebreak the wheel guarantees).
        clock.advance(static_cast<SimTime>(rng() % 700));
        while (!oracle.empty() && oracle.begin()->first <= clock.now()) {
            expected.push_back(oracle.begin()->second.token);
            oracle.erase(oracle.begin());
        }
        wheel.fire_due();
        ASSERT_EQ(fired, expected) << "round " << round;
    }
    EXPECT_EQ(wheel.armed(), oracle.size());
}

}  // namespace
}  // namespace bacp::net
