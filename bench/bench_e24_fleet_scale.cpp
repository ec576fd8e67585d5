// E24 -- fleet scale: 100k concurrent sessions, client and server both
// multiplexed.
//
// E22 proved the batching economics survive multiplexing at ~1k
// sessions, with every client a full NetEngine owning its own socket
// and poll loop.  That harness cannot reach 100k -- the client side
// drowns first.  E24 swaps it for net::ClientFleet (N sessions, a
// handful of connected sockets, one wheel, one receive arena) against a
// socket-owning net::Server, and scales the *session count* itself:
// 1k, 10k, 100k concurrent sessions over real loopback UDP, each
// session a complete block-ack transfer.
//
// What the redesign must show, and this bench gates:
//   - the server holds tens of thousands of concurrent sessions (the
//     flat session tables; peak held is reported per point);
//   - the steady state allocates exactly zero: after every session has
//     been admitted and half the fleet has finished, not one heap
//     allocation per datagram on either side (same counting-allocator
//     hook as E20/E21/E22);
//   - timer cost scales with *due* timers, not armed ones: a pinned
//     check arms 100k far timers on a net::TimerWheel and verifies idle
//     polls and a 64-timer expiry both do bounded structural work (the
//     hierarchical wheel's reason to exist; DESIGN.md section 15);
//   - the per-session footprint is what Server::session_footprint()
//     says: the same hook counts live heap bytes, and the heap the
//     server gains while admitting a point's sessions, per session,
//     must not exceed the estimate by more than a tolerance.  Each
//     point also reports resident KB and minor page faults per session
//     (both sides of the fleet, from /proc and getrusage) and the
//     fleet's retransmissions.
//
//   --quick            smaller sweep (CI smoke; same gates)
//   --check-budget X   exit nonzero when steady-state allocs per
//                      datagram exceed X at any point, or the timer
//                      scaling check fails
//   --check-sessions N exit nonzero unless the top point held >= N
//                      concurrent server sessions
//   --check-footprint T exit nonzero when any point's server heap
//                      bytes per session exceed session_footprint()
//                      x (1 + T)
//   --sessions N       override the largest session count
//   --shards N         server shard (socket + wheel) count, default 2
//   --sockets N        fleet socket count, default 8
//   --offload MODE     transport offload tier: mmsg (default), gso,
//                      uring, auto
//   E24_ALLOC_PROBE=1  (env) dump backtraces of steady-state allocations

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ba/engine_core.hpp"
#include "json_out.hpp"
#include "net/client_fleet.hpp"
#include "net/clock.hpp"
#include "net/net_engine.hpp"
#include "net/offload.hpp"
#include "net/server.hpp"
#include "net/timer_wheel.hpp"
#include "net/transport.hpp"
#include "workload/report.hpp"

// ---- counting allocator hook ----------------------------------------------
// memory_probe.hpp replaces global operator new/delete for this binary:
// every heap allocation made anywhere in the process is counted.

#include "memory_probe.hpp"

// ---- the bench -------------------------------------------------------------

using namespace bacp;
using namespace bacp::net;

namespace {

using Core = ba::EngineCore<ba::Sender, ba::Receiver>;

// Small frames: the point is session *count*, not bytes -- 100k tiny
// transfers stress tables, timers, and demux, not the NIC.
constexpr std::size_t kPayload = 32;
constexpr Seq kWindow = 4;
constexpr Seq kCount = 4;  // messages per session
constexpr std::size_t kMaxFrame = kPayload + 128;
constexpr SimTime kLifetime = 1 * kMillisecond;
// Single-threaded driver: one round over tens of thousands of active
// sessions takes longer than any loopback RTT; the timeout must sit
// above that scheduling latency or every message retransmits spuriously.
constexpr SimTime kTimeout = 250 * kMillisecond;

double now_sec() {
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

struct FleetResult {
    std::size_t sessions = 0;
    bool completed = false;
    double wall_sec = 0;
    std::size_t held_peak = 0;    // max concurrent server sessions
    std::size_t held_final = 0;   // still open when the fleet finished
    std::uint64_t delivered = 0;
    std::uint64_t bytes_delivered = 0;
    double dgrams_per_syscall = 0;
    double steady_allocs_per_dgram = 0;
    // Footprint: the live heap the server gained inside its polls (the
    // sessions it admitted, plus its tables' growth) per held session,
    // against its own estimate; resident KB and minor faults per
    // session cover both sides, from just before the server is built
    // to the end of the point.
    double heap_bytes_per_session = 0;
    std::size_t session_footprint = 0;
    double rss_kb_per_session = 0;
    double minflt_per_session = 0;
    Metrics server_transport;
    ServerStats server_stats;
    FleetStats fleet_stats;
    sim::Metrics client_protocol;

    double rate_msgs_per_sec() const {
        if (wall_sec <= 0) return 0;
        return static_cast<double>(delivered) / wall_sec;
    }
};

/// One point: \p sessions concurrent block-ack transfers of kCount
/// messages each, ClientFleet against a socket-owning Server.
FleetResult run_point(std::size_t sessions, std::size_t shards, std::size_t fleet_sockets,
                      OffloadMode offload) {
    FleetResult out;
    out.sessions = sessions;

    SteadyClock clock;
    malloc_trim(0);  // hand the previous point's freed pages back first
    const double rss_before_kb = memprobe::rss_kb_now();
    const std::uint64_t minflt_before = memprobe::minflt_now();
    std::int64_t server_heap_gained = 0;

    ServerConfig scfg;
    scfg.session.w = kWindow;
    scfg.session.rx_count = 1 << 20;  // receivers run open-ended
    scfg.session.payload_size = kPayload;
    scfg.session.max_datagram = kMaxFrame;
    scfg.session.link_lifetime = kLifetime;
    scfg.session.timeout = kTimeout;
    scfg.session.seed = 11;
    scfg.shards = shards;
    scfg.port = 0;
    scfg.offload = offload;
    scfg.recv_batch = 512;
    // Hold every session for the whole run: the concurrency claim *is*
    // the resident state, so nothing may idle out mid-sweep.
    scfg.idle_timeout = 600 * kSecond;
    scfg.max_sessions = sessions + 64;  // per shard; reuseport may skew
    Server<Core> server(scfg, {}, clock);

    FleetConfig fcfg;
    fcfg.session.w = kWindow;
    fcfg.session.count = kCount;
    fcfg.session.payload_size = kPayload;
    fcfg.session.max_datagram = kMaxFrame;
    fcfg.session.link_lifetime = kLifetime;
    fcfg.session.timeout = kTimeout;
    fcfg.session.seed = 11;
    fcfg.sessions = sessions;
    fcfg.max_active = std::min<std::size_t>(sessions, 4096);
    fcfg.recv_batch = 512;

    std::vector<std::unique_ptr<UdpTransport>> sockets;
    std::vector<Transport*> socket_ptrs;
    for (std::size_t i = 0; i < fleet_sockets; ++i) {
        auto t = std::make_unique<UdpTransport>();
        t->request_buffer_sizes(std::size_t{4} << 20);
        t->enable_offload(offload);
        t->connect_peer(server.port());
        socket_ptrs.push_back(t.get());
        sockets.push_back(std::move(t));
    }
    ClientFleet<Core> fleet(fcfg, {}, clock, socket_ptrs);

    const std::size_t half = sessions / 2;
    std::uint64_t allocs_at_snap = 0;
    std::uint64_t dgrams_at_snap = 0;
    bool snapped = false;

    const auto dgrams_received = [&] {
        return server.transport_metrics().datagrams_received +
               fleet.transport_metrics().datagrams_received;
    };

    const double start = now_sec();
    const double deadline = start + 240.0;
    for (;;) {
        std::size_t work = fleet.poll();
        const std::int64_t heap_before = memprobe::live_bytes_now();
        work += server.poll();
        server_heap_gained += memprobe::live_bytes_now() - heap_before;
        out.held_peak = std::max(out.held_peak, server.session_count());
        // Steady state begins once the tables, slabs, and wheels are at
        // high water: every session admitted *and answered by the
        // server* (a dropped first window opens its session only after
        // the retransmit lands, and the first ack back grows driver
        // state), half the fleet retired.
        if (!snapped && fleet.stats().sessions_started == sessions &&
            fleet.stats().sessions_touched == sessions && fleet.finished_count() >= half) {
            allocs_at_snap = memprobe::allocs_now();
            dgrams_at_snap = dgrams_received();
            snapped = true;
            memprobe::arm_trace_if("E24_ALLOC_PROBE");
        }
        if (fleet.done()) {
            out.completed = true;
            break;
        }
        if (now_sec() > deadline) break;
        if (work == 0) {
            std::optional<SimTime> next = fleet.wheel().next_deadline();
            for (std::size_t i = 0; i < server.shard_count(); ++i) {
                const auto d = server.shard_wheel(i).next_deadline();
                if (d && (!next || *d < *next)) next = d;
            }
            if (next) {
                const SimTime gap = *next - clock.now();
                if (gap > 0) {
                    std::this_thread::sleep_for(std::chrono::nanoseconds(
                        std::min<SimTime>(gap, 2 * kMillisecond)));
                }
            }
        }
    }
    out.wall_sec = now_sec() - start;
    memprobe::disarm_trace();

    const std::uint64_t dgrams_end = dgrams_received();
    if (snapped && dgrams_end > dgrams_at_snap) {
        out.steady_allocs_per_dgram = static_cast<double>(memprobe::allocs_now() - allocs_at_snap) /
                                      static_cast<double>(dgrams_end - dgrams_at_snap);
    }

    out.held_final = server.session_count();
    if (out.held_final > 0) {
        out.heap_bytes_per_session =
            static_cast<double>(server_heap_gained) / static_cast<double>(out.held_final);
    }
    out.session_footprint = server.session_footprint();
    out.rss_kb_per_session =
        (memprobe::rss_kb_now() - rss_before_kb) / static_cast<double>(sessions);
    out.minflt_per_session =
        static_cast<double>(memprobe::minflt_now() - minflt_before) / static_cast<double>(sessions);
    out.server_transport = server.transport_metrics();
    out.server_stats = server.stats();
    out.fleet_stats = fleet.stats();
    out.client_protocol = fleet.protocol_metrics();
    out.dgrams_per_syscall = out.server_transport.datagrams_per_send_syscall();
    for (const SessionView& v : server.sessions()) {
        out.delivered += v.delivered;
        out.bytes_delivered += v.bytes_delivered;
    }
    return out;
}

// ---- pinned timer-scaling check --------------------------------------------

struct TimerCheck {
    std::uint64_t idle_work = 0;  // 100 idle polls over 100k armed timers
    std::uint64_t fire_work = 0;  // expiring 64 amid the same population
    bool ok = false;
};

/// The hierarchical wheel's contract, pinned where CI sees it: fire_due
/// cost tracks *due* timers, not armed ones.  Mirrors the bound in
/// test_hier_wheel but through the real net::TimerWheel service.
TimerCheck run_timer_check() {
    TimerCheck out;
    ManualClock clock;
    TimerWheel wheel(clock);
    wheel.reserve(100'064);
    for (int i = 0; i < 100'000; ++i) {
        wheel.schedule_after(60 * kSecond + (i % 1000) * kMillisecond, [] {});
    }
    const std::uint64_t before_idle = wheel.fire_work();
    for (int i = 0; i < 100; ++i) {
        clock.advance(10 * kMillisecond);
        wheel.fire_due();
    }
    out.idle_work = wheel.fire_work() - before_idle;

    for (int i = 0; i < 64; ++i) wheel.schedule_after(kMillisecond + i, [] {});
    const std::uint64_t before_fire = wheel.fire_work();
    clock.advance(2 * kMillisecond);
    const std::size_t fired = wheel.fire_due();
    out.fire_work = wheel.fire_work() - before_fire;
    out.ok = fired == 64 && out.idle_work < 100 && out.fire_work < 64 * 8 + 256;
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    double budget = -1;
    double footprint_tolerance = -1;
    std::size_t check_sessions = 0;
    std::size_t shards = 2;
    std::size_t fleet_sockets = 8;
    std::size_t max_sessions = 0;
    OffloadMode offload = OffloadMode::Mmsg;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--check-budget") == 0 && i + 1 < argc) {
            budget = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--check-footprint") == 0 && i + 1 < argc) {
            footprint_tolerance = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--check-sessions") == 0 && i + 1 < argc) {
            check_sessions = static_cast<std::size_t>(std::atoll(argv[++i]));
        } else if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
            max_sessions = static_cast<std::size_t>(std::atoll(argv[++i]));
        } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
            shards = static_cast<std::size_t>(std::atoll(argv[++i]));
        } else if (std::strcmp(argv[i], "--sockets") == 0 && i + 1 < argc) {
            fleet_sockets = static_cast<std::size_t>(std::atoll(argv[++i]));
        } else if (std::strcmp(argv[i], "--offload") == 0 && i + 1 < argc) {
            const auto parsed = parse_offload_mode(argv[++i]);
            if (!parsed) {
                std::fprintf(stderr, "unknown --offload mode '%s'\n", argv[i]);
                return 2;
            }
            offload = *parsed;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--quick] [--check-budget X] [--check-footprint T] "
                         "[--check-sessions N] "
                         "[--sessions N] [--shards N] [--sockets N] "
                         "[--offload auto|mmsg|gso|uring]\n",
                         argv[0]);
            return 2;
        }
    }
    if (max_sessions == 0) max_sessions = quick ? 4096 : 100'000;

    const OffloadMode tier = resolve_offload(offload);
    std::printf("E24: fleet scale, %zu server shard(s), %zu fleet socket(s), "
                "%llu x %zu B per session\n"
                "     (real loopback UDP; ClientFleet multiplexes every session\n"
                "      onto shared sockets, the server holds them all; offload\n"
                "      %s -> tier %s)\n\n",
                shards, fleet_sockets, static_cast<unsigned long long>(kCount), kPayload,
                offload_mode_name(offload), offload_mode_name(tier));

    std::vector<std::size_t> sweep;
    if (quick) {
        sweep = {512, max_sessions};
    } else {
        sweep = {1000, 10'000, max_sessions};
    }

    workload::Table table({"sessions", "held peak", "wall", "msgs/s", "dgrams/sendmmsg",
                           "steady allocs/dgram", "heap B/session", "footprint B",
                           "RSS KB/session", "minflt/session", "data_retx", "done"});
    bench::Json points = bench::Json::array();
    bool over_budget = false;
    bool over_footprint = false;
    bool incomplete = false;
    std::size_t top_held = 0;

    for (const std::size_t sessions : sweep) {
        const FleetResult r = run_point(sessions, shards, fleet_sockets, offload);
        incomplete = incomplete || !r.completed;
        if (sessions == max_sessions) top_held = r.held_peak;
        table.add_row({std::to_string(sessions), std::to_string(r.held_peak),
                       workload::fmt(r.wall_sec, 1) + " s",
                       workload::fmt(r.rate_msgs_per_sec(), 0),
                       workload::fmt(r.dgrams_per_syscall, 2),
                       workload::fmt(r.steady_allocs_per_dgram, 6),
                       workload::fmt(r.heap_bytes_per_session, 0),
                       std::to_string(r.session_footprint),
                       workload::fmt(r.rss_kb_per_session, 2),
                       workload::fmt(r.minflt_per_session, 2),
                       std::to_string(r.client_protocol.data_retx),
                       r.completed ? "yes" : "NO"});
        points.push(
            bench::Json::object()
                .set("sessions", bench::Json::num(static_cast<std::uint64_t>(sessions)))
                .set("completed", bench::Json::boolean(r.completed))
                .set("wall_sec", bench::Json::num(r.wall_sec))
                .set("held_peak",
                     bench::Json::num(static_cast<std::uint64_t>(r.held_peak)))
                .set("held_final",
                     bench::Json::num(static_cast<std::uint64_t>(r.held_final)))
                .set("delivered", bench::Json::num(r.delivered))
                .set("msgs_per_sec", bench::Json::num(r.rate_msgs_per_sec()))
                .set("dgrams_per_syscall", bench::Json::num(r.dgrams_per_syscall))
                .set("steady_allocs_per_datagram",
                     bench::Json::num(r.steady_allocs_per_dgram))
                .set("heap_bytes_per_session", bench::Json::num(r.heap_bytes_per_session))
                .set("session_footprint",
                     bench::Json::num(static_cast<std::uint64_t>(r.session_footprint)))
                .set("rss_kb_per_session", bench::Json::num(r.rss_kb_per_session))
                .set("minflt_per_session", bench::Json::num(r.minflt_per_session))
                .set("data_retx", bench::Json::num(r.client_protocol.data_retx))
                .set("server_transport", bench::counters_json(r.server_transport))
                .set("server_stats", bench::counters_json(r.server_stats))
                .set("fleet_stats", bench::counters_json(r.fleet_stats))
                .set("client_protocol", bench::counters_json(r.client_protocol)));
        if (budget >= 0 && r.steady_allocs_per_dgram > budget) over_budget = true;
        if (footprint_tolerance >= 0 &&
            r.heap_bytes_per_session >
                static_cast<double>(r.session_footprint) * (1.0 + footprint_tolerance)) {
            over_footprint = true;
        }
    }

    table.print("E24: concurrent session sweep (ClientFleet vs socket-owning Server)");

    const TimerCheck tc = run_timer_check();
    std::printf("\ntimer scaling: 100 idle polls over 100k armed = %llu work ops, "
                "64 due fired = %llu work ops: %s\n",
                static_cast<unsigned long long>(tc.idle_work),
                static_cast<unsigned long long>(tc.fire_work), tc.ok ? "ok" : "FAIL");
    std::printf("%zu sessions attempted, %zu held concurrently at peak\n", max_sessions,
                top_held);

    bench::BenchOutput out("e24_fleet_scale");
    out.meta("count_per_session", bench::Json::num(static_cast<std::uint64_t>(kCount)))
        .meta("payload_bytes", bench::Json::num(static_cast<std::uint64_t>(kPayload)))
        .meta("shards", bench::Json::num(static_cast<std::uint64_t>(shards)))
        .meta("fleet_sockets", bench::Json::num(static_cast<std::uint64_t>(fleet_sockets)))
        .meta("offload_requested", bench::Json::str(offload_mode_name(offload)))
        .meta("offload_tier", bench::Json::str(offload_mode_name(tier)))
        .meta("quick", bench::Json::boolean(quick))
        .meta("top_held_peak", bench::Json::num(static_cast<std::uint64_t>(top_held)))
        .meta("timer_idle_work", bench::Json::num(tc.idle_work))
        .meta("timer_fire_work", bench::Json::num(tc.fire_work))
        .meta("timer_scaling_ok", bench::Json::boolean(tc.ok))
        .meta("points", std::move(points))
        .add_table("fleet scale sweep", table);
    if (!out.write()) std::printf("warning: could not write BENCH_e24 output files\n");

    bool fail = false;
    if (budget >= 0) {
        std::printf("budget gate: steady allocs/dgram <= %g: %s\n", budget,
                    over_budget ? "FAIL" : "ok");
        if (over_budget) fail = true;
        if (incomplete) {
            std::printf("budget gate: a point did not complete: FAIL\n");
            fail = true;
        }
        if (!tc.ok) {
            std::printf("timer gate: fire_due work must scale with due timers: FAIL\n");
            fail = true;
        }
    }
    if (footprint_tolerance >= 0) {
        std::printf("footprint gate: server heap bytes/session <= session_footprint() x %g: "
                    "%s\n",
                    1.0 + footprint_tolerance, over_footprint ? "FAIL" : "ok");
        if (over_footprint) fail = true;
    }
    if (check_sessions > 0 && top_held < check_sessions) {
        std::printf("session gate: held %zu < required %zu: FAIL\n", top_held,
                    check_sessions);
        fail = true;
    }
    if (fail) return 1;
    std::printf("Machine-readable copies: BENCH_e24_fleet_scale.{json,csv}\n");
    return 0;
}
