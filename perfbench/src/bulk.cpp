// bulk: one one-way block-ack session, 1 KiB payloads at w=64, over a
// loopback UDP socket pair on the GSO/GRO tier.
//
// The per-datagram path carries all the load: syscalls, the GSO/GRO
// split, CRC + decode, driver decisions and encode; the session table
// and timer wheel do almost nothing.  The path is clean and the link
// lifetime is 2 ms, so the window-paced closed loop spends most of its
// wall time waiting, and time and CPU per message separate cleanly.
//
// The pieces are NetEngine's (UdpTransport::make_pair, one TimerWheel
// and one NetEndpoint per side, NetEngine::run's loop and idle wait),
// assembled here so a TimedTransport can sit under each endpoint.

#include <algorithm>
#include <memory>
#include <optional>

#include "ba/engine_core.hpp"
#include "net/clock.hpp"
#include "net/net_engine.hpp"
#include "net/timer_wheel.hpp"
#include "runtime/session_util.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace bacp;
using namespace bacp::net;
using Core = ba::EngineCore<ba::Sender, ba::Receiver>;

constexpr std::size_t kPayload = 1024;
constexpr Seq kWindow = 64;
constexpr SimTime kLifetime = 2 * kMillisecond;
constexpr double kUnitDeadlineS = 60;

NetConfig bulk_config(Seq count, std::uint64_t seed) {
    NetConfig cfg;
    cfg.w = kWindow;
    cfg.count = count;
    cfg.payload_size = kPayload;
    cfg.link_lifetime = kLifetime;
    cfg.offload = OffloadMode::Gso;
    cfg.seed = seed;
    return cfg;
}

/// One session: sender A and receiver B, each over its own socket.
struct Session {
    Session(Seq count, std::uint64_t seed) : tracker(1, 0, count) {
        rss_before_kb = rss_kb_now();
        const NetConfig cfg = bulk_config(count, seed);
        auto [a, b] = UdpTransport::make_pair();
        a->enable_offload(cfg.offload);
        b->enable_offload(cfg.offload);
        sock_a = std::move(a);
        sock_b = std::move(b);
        io_a = std::make_unique<TimedTransport>(*sock_a, nullptr, &tracker, clock, true);
        io_b = std::make_unique<TimedTransport>(*sock_b, nullptr, nullptr, clock, true);
        wheel_a = std::make_unique<TimerWheel>(clock);
        wheel_b = std::make_unique<TimerWheel>(clock);
        NetConfig cfg_b = cfg;
        cfg_b.count = 0;
        cfg_b.rx_count = count;
        sender = std::make_unique<NetEndpoint<Core>>(cfg, Core::Options{}, *wheel_a, *io_a);
        receiver = std::make_unique<NetEndpoint<Core>>(cfg_b, Core::Options{}, *wheel_b, *io_b);
    }

    std::size_t poll(NetEndpoint<Core>& e) {
        Scope span(SpanName::EndpointPoll);
        ++polls;
        return e.poll();
    }

    /// NetEngine's idle wait: up to 5 ms, cut short by the earliest
    /// timer or a readable socket.
    void idle_wait() {
        SimTime wait = 5 * kMillisecond;
        std::optional<SimTime> next = wheel_a->next_deadline();
        const auto nb = wheel_b->next_deadline();
        if (nb && (!next || *nb < *next)) next = nb;
        if (next) wait = std::clamp<SimTime>(*next - clock.now(), 0, wait);
        const int fds[] = {sock_a->fd(), sock_b->fd()};
        Scope span(SpanName::Idle);
        wait_readable(fds, wait);
    }

    bool finished() const { return sender->done() && receiver->done(); }

    SteadyClock clock;
    MsgTracker tracker;
    std::unique_ptr<UdpTransport> sock_a;
    std::unique_ptr<UdpTransport> sock_b;
    std::unique_ptr<TimedTransport> io_a;
    std::unique_ptr<TimedTransport> io_b;
    std::unique_ptr<TimerWheel> wheel_a;
    std::unique_ptr<TimerWheel> wheel_b;
    std::unique_ptr<NetEndpoint<Core>> sender;
    std::unique_ptr<NetEndpoint<Core>> receiver;
    std::uint64_t polls = 0;
    double rss_before_kb = 0;  // after the tracker, before the program's objects
};

}  // namespace

Report run_bulk(const RunSpec& spec) {
    Report r;
    Totals t;
    const Seq count = spec.quick ? 2'000 : 10'000;
    const Usage usage0 = usage_now();

    IoCounts io_all;
    Metrics side_a;
    Metrics side_b;
    sim::Metrics proto;
    std::uint64_t fired = 0;
    std::uint64_t wheel_work = 0;
    std::uint64_t polls = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t anomalies = 0;
    OffloadMode tier = OffloadMode::Mmsg;

    const double begin = wall_s();
    for (std::uint64_t unit = 0; unit == 0 || wall_s() - begin < spec.seconds; ++unit) {
        const std::int64_t t0 = wall_ns();
        Session s(count, runtime::mix_seed(spec.seed, unit));

        bool snapped = false;
        std::uint64_t snap_allocs = 0;
        std::uint64_t snap_dgrams = 0;
        const auto dgrams_moved = [&s] {
            return s.io_a->counts().dgrams_sent + s.io_a->counts().dgrams_received +
                   s.io_b->counts().dgrams_sent + s.io_b->counts().dgrams_received;
        };
        const Usage u0 = usage_now();
        const std::int64_t w0 = wall_ns();
        {
            Scope span(SpanName::EndpointPoll);
            s.sender->start();
            s.receiver->start();
        }
        while (!s.finished()) {
            if (static_cast<double>(wall_ns() - w0) * 1e-9 > kUnitDeadlineS) break;
            const std::size_t work = s.poll(*s.sender) + s.poll(*s.receiver);
            if (!snapped && s.receiver->delivered() >= count / 2) {
                snapped = true;
                snap_allocs = allocs_now();
                snap_dgrams = dgrams_moved();
            }
            if (work == 0) s.idle_wait();
        }
        const std::int64_t w1 = wall_ns();
        const Usage unit_cpu = usage_now() - u0;
        if (unit == 0) t.session_rss_kb = rss_kb_now() - s.rss_before_kb;
        if (snapped) {
            t.steady_allocs += allocs_now() - snap_allocs;
            t.steady_dgrams += dgrams_moved() - snap_dgrams;
        }
        t.setups_s.push_back(static_cast<double>(s.tracker.first_send_wall_ns() - t0) * 1e-9);

        // Let late duplicates land so both ledgers compare settled counts.
        tracer().pause(true);
        for (int idle = 0, i = 0; idle < 2 && i < 50; ++i) {
            if (s.sender->poll() + s.receiver->poll() == 0) {
                ++idle;
                const int fds[] = {s.sock_a->fd(), s.sock_b->fd()};
                wait_readable(fds, kMillisecond);
            } else {
                idle = 0;
            }
        }
        tracer().pause(false);

        // Outputs: every message delivered once with verified bytes, and
        // nothing delivered in the reverse direction.
        const std::uint64_t unit_mismatches =
            s.sender->payload_mismatches() + s.receiver->payload_mismatches();
        mismatches += unit_mismatches;
        const bool bytes_ok = s.receiver->bytes_delivered() ==
                                  static_cast<std::uint64_t>(s.receiver->delivered()) * kPayload &&
                              s.sender->bytes_delivered() == 0;
        std::uint64_t delivered = 0;
        if (unit_mismatches == 0 && bytes_ok) {
            delivered = std::min<std::uint64_t>(std::min<Seq>(s.receiver->delivered(), count),
                                                s.tracker.acked());
        }
        t.add_unit(delivered, static_cast<double>(w1 - w0) * 1e-9, unit_cpu,
                   s.tracker.latencies());
        t.attempted += count;
        anomalies += s.tracker.anomalies();

        io_all += s.io_a->counts();
        io_all += s.io_b->counts();
        side_a += s.sock_a->stats();
        side_b += s.sock_b->stats();
        proto.add_counters_from(s.sender->metrics());
        proto.add_counters_from(s.receiver->metrics());
        fired += s.wheel_a->timers_fired() + s.wheel_b->timers_fired();
        wheel_work += s.wheel_a->fire_work() + s.wheel_b->fire_work();
        polls += s.polls;
        tier = s.sock_a->offload_tier();
    }
    t.whole = usage_now() - usage0;
    t.dgrams = io_all.dgrams_sent;
    if (mismatches > 0) r.error(fmt("%llu payload mismatches", (unsigned long long)mismatches));
    if (anomalies > 0) {
        r.error(fmt("%llu frames outside the session's sequence range",
                    static_cast<unsigned long long>(anomalies)));
    }
    finish_report(r, t);

    const std::int64_t lab =
        ledger(r, "A->B", side_a.datagrams_sent, side_b.datagrams_received, 0, 0);
    const std::int64_t lba =
        ledger(r, "B->A", side_b.datagrams_sent, side_a.datagrams_received, 0, 0);
    report_transport(r, io_all, side_a, side_b,
                     static_cast<std::uint64_t>(std::max<std::int64_t>(lab, 0) +
                                                std::max<std::int64_t>(lba, 0)));
    report_wire(r, io_all);
    r.set("net.endpoint.self_ns_per_dgram",
          self_ns_per(SpanName::EndpointPoll, io_all.dgrams_sent + io_all.dgrams_received));
    r.set("net.endpoint.idle_share",
          t.wall_s > 0 ? static_cast<double>(tracer().totals(SpanName::Idle).total_ns) /
                             (t.wall_s * 1e9)
                       : 0);
    r.set("net.endpoint.polls_per_msg",
          t.delivered ? static_cast<double>(polls) / static_cast<double>(t.delivered) : 0);
    report_wheel(r, fired, wheel_work, t.delivered);
    report_runtime(r, proto, t.delivered, 0, 0);
    r.note(fmt("bulk: one session per unit, %llu x %zu B, w=%llu, link lifetime %lld us, "
               "tier %s",
               static_cast<unsigned long long>(count), kPayload,
               static_cast<unsigned long long>(kWindow),
               static_cast<long long>(kLifetime / kMicrosecond), offload_mode_name(tier)));
    return r;
}

}  // namespace perfbench
