// fleet: ClientFleet -> Server over loopback UDP, 10,000 concurrent
// one-way block-ack sessions.
//
// Session admission, the FlatTable demux, the hierarchical timer wheel,
// ack coalescing and the per-session footprint do most of the work; the
// per-message codec cost is small.  The session count stays at 10,000,
// well past the 4,096-session admission window where retransmissions
// start, so the footprint defect and its retransmission storm stay in
// view.

#include <malloc.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "ba/engine_core.hpp"
#include "net/client_fleet.hpp"
#include "net/clock.hpp"
#include "net/server.hpp"
#include "runtime/session_util.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace bacp;
using namespace bacp::net;
using Core = ba::EngineCore<ba::Sender, ba::Receiver>;

constexpr std::size_t kSessions = 10'000;
constexpr std::size_t kMaxActive = 4096;  // closed-loop admission window
constexpr std::size_t kShards = 2;
constexpr std::size_t kClientSockets = 4;
constexpr std::size_t kPayload = 32;
constexpr Seq kWindow = 4;
constexpr std::size_t kMaxFrame = kPayload + 128;
constexpr SimTime kLifetime = 1 * kMillisecond;
// One thread drives thousands of active sessions: a round over them
// outlasts any loopback RTT, so the timeout sits above that scheduling
// latency (the setting E24 uses).
constexpr SimTime kTimeout = 250 * kMillisecond;
constexpr double kDeadlineS = 60;  // per unit
// At least this many set-ups feed setup_s's median.
constexpr std::size_t kSetups = 3;

/// One complete fleet: the server's reuseport shard sockets and the
/// fleet's connected sockets, each behind a TimedTransport.
struct Fleet {
    Fleet(Seq count, std::uint64_t seed, SteadyClock& clock)
        : tracker(kSessions, kFirstConn, count) {
        rss_before_kb = rss_kb_now();
        const double t0 = wall_s();
        ServerConfig scfg;
        scfg.session.w = kWindow;
        scfg.session.rx_count = 1 << 20;  // receivers run open-ended
        scfg.session.payload_size = kPayload;
        scfg.session.max_datagram = kMaxFrame;
        scfg.session.link_lifetime = kLifetime;
        scfg.session.timeout = kTimeout;
        scfg.session.seed = seed;
        scfg.recv_batch = 512;
        // Hold every session for the whole run: the concurrency is the
        // resident state, so nothing may idle out.
        scfg.idle_timeout = 600 * kSecond;
        scfg.max_sessions = kSessions + 64;  // per shard; reuseport may skew
        auto bound = make_reuseport_shards(0, kShards, OffloadMode::Mmsg, scfg.socket_buffer);
        shard_sockets = std::move(bound.first);
        std::vector<AddressedTransport*> shards;
        for (auto& s : shard_sockets) {
            shard_io.push_back(std::make_unique<TimedTransport>(*s, s.get(), nullptr, clock, true));
            shards.push_back(shard_io.back().get());
        }
        server = std::make_unique<Server<Core>>(scfg, Core::Options{}, clock, shards);
        const double t1 = wall_s();

        FleetConfig fcfg;
        fcfg.session.w = kWindow;
        fcfg.session.count = count;
        fcfg.session.payload_size = kPayload;
        fcfg.session.max_datagram = kMaxFrame;
        fcfg.session.link_lifetime = kLifetime;
        fcfg.session.timeout = kTimeout;
        fcfg.session.seed = seed;
        fcfg.sessions = kSessions;
        fcfg.first_conn = kFirstConn;
        fcfg.max_active = kMaxActive;
        fcfg.recv_batch = 512;
        std::vector<Transport*> sockets;
        for (std::size_t i = 0; i < kClientSockets; ++i) {
            auto t = std::make_unique<UdpTransport>();
            t->request_buffer_sizes(std::size_t{4} << 20);
            t->enable_offload(OffloadMode::Mmsg);
            t->connect_peer(bound.second);
            client_io.push_back(std::make_unique<TimedTransport>(*t, nullptr, &tracker, clock, true));
            sockets.push_back(client_io.back().get());
            client_sockets.push_back(std::move(t));
        }
        fleet = std::make_unique<ClientFleet<Core>>(fcfg, Core::Options{}, clock, sockets);
        server_construct_s = t1 - t0;
        fleet_construct_s = wall_s() - t1;
        for (auto& s : shard_sockets) fds.push_back(s->fd());
        for (auto& s : client_sockets) fds.push_back(s->fd());
    }

    std::size_t poll() {
        std::size_t work = 0;
        {
            Scope span(SpanName::FleetPoll);
            work += fleet->poll();
        }
        for (std::size_t i = 0; i < server->shard_count(); ++i) {
            Scope span(SpanName::ServerPoll);
            work += server->poll_shard(i);
        }
        return work;
    }

    /// Sleeps until a socket is readable or the earliest timer is due.
    void idle_wait(const Clock& clock) {
        std::optional<SimTime> next = fleet->wheel().next_deadline();
        for (std::size_t i = 0; i < server->shard_count(); ++i) {
            const auto d = server->shard_wheel(i).next_deadline();
            if (d && (!next || *d < *next)) next = d;
        }
        SimTime wait = 2 * kMillisecond;
        if (next) wait = std::clamp<SimTime>(*next - clock.now(), 0, wait);
        if (wait == 0) return;
        Scope span(SpanName::Idle);
        wait_readable(fds, wait);
    }

    IoCounts io(bool clients) const {
        IoCounts total;
        for (const auto& t : clients ? client_io : shard_io) total += t->counts();
        return total;
    }

    static constexpr Seq kFirstConn = 1;

    MsgTracker tracker;
    std::vector<std::unique_ptr<UdpTransport>> shard_sockets;
    std::vector<std::unique_ptr<TimedTransport>> shard_io;
    std::unique_ptr<Server<Core>> server;
    std::vector<std::unique_ptr<UdpTransport>> client_sockets;
    std::vector<std::unique_ptr<TimedTransport>> client_io;
    std::unique_ptr<ClientFleet<Core>> fleet;  // last: its sessions use the sockets above
    std::vector<int> fds;
    double server_construct_s = 0;
    double fleet_construct_s = 0;
    double rss_before_kb = 0;  // after the tracker, before the program's objects
};

/// Builds a fleet and polls until its first DATA leaves; returns the
/// time from the start of the build.
double setup_only(Seq count, std::uint64_t seed, SteadyClock& clock) {
    const std::int64_t t0 = wall_ns();
    Fleet f(count, seed, clock);
    while (f.tracker.first_send_wall_ns() < 0) f.poll();
    return static_cast<double>(f.tracker.first_send_wall_ns() - t0) * 1e-9;
}

}  // namespace

Report run_fleet(const RunSpec& spec) {
    Report r;
    Totals t;
    t.sessions = kSessions;
    const Seq count = spec.quick ? 4 : 64;
    // A run holds three or four units, and a unit's median latency
    // swings with its loss mode (see README.md), so the percentiles pool
    // every sample of the run.
    t.pool_acks = true;
    t.pooled_ack_ns.reserve(std::size_t{6} * kSessions * count);
    SteadyClock clock;
    const Usage usage0 = usage_now();

    IoCounts client_io;
    IoCounts server_io;
    Metrics client_m;
    Metrics server_m;
    sim::Metrics proto;
    std::uint64_t decode_errors = 0;
    std::uint64_t fired = 0;
    std::uint64_t wheel_work = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t anomalies = 0;
    std::size_t held_min = kSessions;
    std::vector<double> server_construct_s;
    std::vector<double> fleet_construct_s;

    const double begin = wall_s();
    for (std::uint64_t unit = 0; unit == 0 || wall_s() - begin < spec.seconds; ++unit) {
        // Freed pages go back to the kernel, so every unit faults its
        // memory in as the first one does.
        malloc_trim(0);
        const std::int64_t t0 = wall_ns();
        Fleet f(count, runtime::mix_seed(spec.seed, unit), clock);
        const auto dgrams_moved = [&f] {
            IoCounts io = f.io(true);
            io += f.io(false);
            return io.dgrams_sent + io.dgrams_received;
        };

        std::size_t held_peak = 0;
        bool snapped = false;
        std::uint64_t snap_allocs = 0;
        std::uint64_t snap_dgrams = 0;
        const Usage u0 = usage_now();
        const std::int64_t w0 = wall_ns();
        for (;;) {
            const std::size_t work = f.poll();
            held_peak = std::max(held_peak, f.server->session_count());
            // Steady state: every session admitted and answered, half the
            // fleet retired (the snapshot E24 takes).
            const FleetStats& fs = f.fleet->stats();
            if (!snapped && fs.sessions_started == kSessions &&
                fs.sessions_touched == kSessions && fs.sessions_finished >= kSessions / 2) {
                snapped = true;
                snap_allocs = allocs_now();
                snap_dgrams = dgrams_moved();
            }
            if (f.fleet->done()) break;
            if (static_cast<double>(wall_ns() - w0) * 1e-9 > kDeadlineS) break;
            if (work == 0) f.idle_wait(clock);
        }
        const std::int64_t w1 = wall_ns();
        const Usage unit_cpu = usage_now() - u0;
        if (unit == 0) t.session_rss_kb = rss_kb_now() - f.rss_before_kb;
        if (snapped) {
            t.steady_allocs += allocs_now() - snap_allocs;
            t.steady_dgrams += dgrams_moved() - snap_dgrams;
        }
        t.setups_s.push_back(static_cast<double>(f.tracker.first_send_wall_ns() - t0) * 1e-9);
        server_construct_s.push_back(f.server_construct_s);
        fleet_construct_s.push_back(f.fleet_construct_s);

        // Drain stragglers so the ledger compares settled counters.
        tracer().pause(true);
        for (int idle = 0, i = 0; idle < 3 && i < 200; ++i) {
            if (f.poll() == 0) {
                ++idle;
                wait_readable(f.fds, kMillisecond);
            } else {
                idle = 0;
            }
        }
        tracer().pause(false);

        // Outputs: every session delivered all its messages, once, intact.
        std::uint64_t ok = 0;
        for (const SessionView& v : f.server->sessions()) {
            mismatches += v.payload_mismatches;
            if (v.payload_mismatches == 0 && v.bytes_delivered == v.delivered * kPayload) {
                ok += std::min<Seq>(v.delivered, count);
            }
        }
        const std::uint64_t unit_ok = std::min<std::uint64_t>(ok, f.tracker.acked());
        const double unit_wall_s = static_cast<double>(w1 - w0) * 1e-9;
        t.add_unit(unit_ok, unit_wall_s, unit_cpu, f.tracker.latencies());
        r.note(fmt("unit %llu: %.0f msgs/s, ack p50 %.1f us, %llu retransmissions",
                   static_cast<unsigned long long>(unit),
                   static_cast<double>(unit_ok) / unit_wall_s, t.unit_ack_p50_ns.back() / 1e3,
                   static_cast<unsigned long long>(f.fleet->protocol_metrics().data_retx)));
        t.attempted += static_cast<std::uint64_t>(kSessions) * count;
        anomalies += f.tracker.anomalies();
        held_min = std::min(held_min, held_peak);

        client_io += f.io(true);
        server_io += f.io(false);
        client_m += f.fleet->transport_metrics();
        server_m += f.server->transport_metrics();
        const sim::Metrics server_proto = f.server->protocol_metrics();
        decode_errors += f.server->stats().decode_errors + server_proto.decode_errors;
        proto.add_counters_from(f.fleet->protocol_metrics());
        proto.add_counters_from(server_proto);
        fired += f.fleet->wheel().timers_fired();
        wheel_work += f.fleet->wheel().fire_work();
        for (std::size_t i = 0; i < f.server->shard_count(); ++i) {
            fired += f.server->shard_wheel(i).timers_fired();
            wheel_work += f.server->shard_wheel(i).fire_work();
        }
    }
    t.whole = usage_now() - usage0;

    // More set-ups for setup_s's median when the run held few units.
    tracer().pause(true);
    while (t.setups_s.size() < kSetups) {
        malloc_trim(0);
        t.setups_s.push_back(setup_only(count, spec.seed, clock));
    }
    tracer().pause(false);

    if (mismatches > 0) r.error(fmt("%llu payload mismatches", (unsigned long long)mismatches));
    if (anomalies > 0) {
        r.error(fmt("%llu frames outside the sessions' sequence ranges",
                    static_cast<unsigned long long>(anomalies)));
    }
    if (held_min < kSessions) {
        r.error(fmt("server held %zu sessions at peak, fewer than %zu", held_min, kSessions));
    }
    IoCounts all = client_io;
    all += server_io;
    t.dgrams = all.dgrams_sent;
    finish_report(r, t);

    const std::int64_t lost_up = ledger(r, "fleet->server", client_m.datagrams_sent,
                                        server_m.datagrams_received, 0, 0);
    const std::int64_t lost_down = ledger(r, "server->fleet", server_m.datagrams_sent,
                                          client_m.datagrams_received, 0, 0);
    const auto lost = static_cast<std::uint64_t>(std::max<std::int64_t>(lost_up, 0) +
                                                 std::max<std::int64_t>(lost_down, 0));
    report_transport(r, all, client_m, server_m, lost);
    report_wire(r, all);

    r.set("net.server.self_ns_per_dgram",
          self_ns_per(SpanName::ServerPoll, server_io.dgrams_sent + server_io.dgrams_received));
    r.set("net.server.construct_s", median(server_construct_s));
    r.set("net.server.sessions_held_peak", static_cast<double>(held_min));
    r.set("net.server.acks_per_send_call",
          server_io.send_calls ? static_cast<double>(server_io.dgrams_sent) /
                                     static_cast<double>(server_io.send_calls)
                               : 0);
    r.set("net.server.decode_errors", static_cast<double>(decode_errors));
    r.set("net.fleet.self_ns_per_dgram",
          self_ns_per(SpanName::FleetPoll, client_io.dgrams_sent + client_io.dgrams_received));
    r.set("net.fleet.construct_s", median(fleet_construct_s));
    report_wheel(r, fired, wheel_work, t.delivered);
    report_runtime(r, proto, t.delivered, 0, 0);

    r.note(fmt("fleet: %zu sessions x %llu x %zu B, w=%llu, admission window %zu, %zu server "
               "shards, %zu client sockets, tier mmsg; every unit held %zu or more sessions",
               kSessions, static_cast<unsigned long long>(count), kPayload,
               static_cast<unsigned long long>(kWindow), kMaxActive, kShards, kClientSockets,
               held_min));
    r.note(fmt("fleet: %llu retransmissions, lost share %.5f (%llu of %llu datagrams)",
               static_cast<unsigned long long>(proto.data_retx),
               r.get("net.transport.lost_dgrams_share"), static_cast<unsigned long long>(lost),
               static_cast<unsigned long long>(client_m.datagrams_sent +
                                               server_m.datagrams_sent)));
    return r;
}

}  // namespace perfbench
