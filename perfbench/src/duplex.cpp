// duplex: one duplex NetEndpoint pair over InprocTransport and a
// ManualClock (E25's shape), with acks piggybacked on reverse DATA.
//
// It uses the same driver and wire layers as bulk in another way: acks
// ride reverse DATA, and 5% seeded loss forces retransmissions and
// out-of-order stashing.  Each direction releases one 512 B message per
// millisecond of clock time, an open loop, and ack latency runs from a
// message's scheduled release.  There are no syscalls: wall time is pure
// CPU, and every protocol count is a function of the seed, which the
// run checks by replaying its first unit.

#include <malloc.h>

#include <algorithm>
#include <memory>
#include <optional>

#include "ba/engine_core.hpp"
#include "net/clock.hpp"
#include "net/impairer.hpp"
#include "net/net_engine.hpp"
#include "net/timer_wheel.hpp"
#include "runtime/session_util.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace bacp;
using namespace bacp::net;
using Core = ba::EngineCore<ba::Sender, ba::Receiver>;

constexpr std::size_t kPayload = 512;
constexpr Seq kWindow = 32;
constexpr double kLoss = 0.05;
constexpr SimTime kLifetime = 2 * kMillisecond;
constexpr SimTime kPace = 1 * kMillisecond;  // release interval, each direction
constexpr SimTime kPiggybackDelay = 4 * kMillisecond;

NetConfig duplex_config(Seq count, std::uint64_t seed) {
    NetConfig cfg;
    cfg.w = kWindow;
    cfg.count = count;
    cfg.rx_count = count;
    cfg.payload_size = kPayload;
    cfg.impair = ImpairSpec::lossy(kLoss);
    cfg.seed = seed;
    cfg.link_lifetime = kLifetime;
    cfg.arrival_interval = kPace;
    cfg.piggyback = true;
    cfg.piggyback_delay = kPiggybackDelay;
    cfg.deadline = 600 * kSecond;
    return cfg;
}

/// Everything a replay must reproduce exactly.
struct Counts {
    std::uint64_t dgrams_ab = 0;
    std::uint64_t dgrams_ba = 0;
    std::uint64_t data_retx = 0;
    std::uint64_t piggybacked = 0;
    std::uint64_t standalone_acks = 0;
    std::uint64_t delivered = 0;
    std::uint64_t timers_fired = 0;
    std::uint64_t impair_dropped = 0;
    std::int64_t end_time = 0;
    std::int64_t latency_sum = 0;
    friend bool operator==(const Counts&, const Counts&) = default;
};

/// One duplex session: endpoint -> TimedTransport -> Impairer ->
/// InprocTransport on each side, both sides on one ManualClock.
struct Session {
    Session(Seq count, std::uint64_t seed)
        : tracker_a(1, 0, count), tracker_b(1, 0, count) {
        rss_before_kb = rss_kb_now();
        const NetConfig cfg = duplex_config(count, seed);
        auto [queue_a, queue_b] = InprocTransport::make_pair();
        const std::size_t bufs = 4 * static_cast<std::size_t>(kWindow) + 32;
        queue_a->reserve_buffers(bufs, kPayload + 128);
        queue_b->reserve_buffers(bufs, kPayload + 128);
        raw_a = std::move(queue_a);
        raw_b = std::move(queue_b);
        wheel_a = std::make_unique<TimerWheel>(clock);
        wheel_b = std::make_unique<TimerWheel>(clock);
        imp_a = std::make_unique<Impairer>(*raw_a, *wheel_a, cfg.impair,
                                           runtime::mix_seed(seed, 0xd1));
        imp_b = std::make_unique<Impairer>(*raw_b, *wheel_b, cfg.impair,
                                           runtime::mix_seed(seed, 0xac));
        imp_a->reserve_slots(bufs, kPayload + 128);
        imp_b->reserve_slots(bufs, kPayload + 128);
        // In-process queues are not the kernel transport layer: no
        // Send/Recv spans, so their cost stays in the endpoint's time.
        io_a = std::make_unique<TimedTransport>(*imp_a, nullptr, &tracker_a, clock, false);
        io_b = std::make_unique<TimedTransport>(*imp_b, nullptr, &tracker_b, clock, false);
        a = std::make_unique<NetEndpoint<Core>>(cfg, Core::Options{}, *wheel_a, *io_a);
        b = std::make_unique<NetEndpoint<Core>>(cfg, Core::Options{}, *wheel_b, *io_b);
    }

    std::size_t poll(NetEndpoint<Core>& e) {
        Scope span(SpanName::EndpointPoll);
        ++polls;
        return e.poll();
    }

    /// Runs the transfer to completion, calling \p tick after each pair
    /// of polls; returns false if it wedged (no work and no timer).
    template <typename Tick>
    bool run(Tick&& tick) {
        tracker_a.schedule_releases(clock.now(), kPace);
        tracker_b.schedule_releases(clock.now(), kPace);
        {
            Scope span(SpanName::EndpointPoll);
            a->start();
            b->start();
        }
        while (!(a->done() && b->done())) {
            const std::size_t work = poll(*a) + poll(*b);
            tick();
            if (work > 0) continue;
            std::optional<SimTime> next = wheel_a->next_deadline();
            const auto nb = wheel_b->next_deadline();
            if (nb && (!next || *nb < *next)) next = nb;
            if (!next) return false;
            Scope span(SpanName::Idle);  // the clock jumps: nothing to wait for
            clock.advance_to(*next);
        }
        return true;
    }

    Counts counts() const {
        Counts c;
        c.dgrams_ab = io_a->counts().dgrams_sent;
        c.dgrams_ba = io_b->counts().dgrams_sent;
        c.data_retx = a->metrics().data_retx + b->metrics().data_retx;
        c.piggybacked = a->piggybacked() + b->piggybacked();
        c.standalone_acks = a->standalone_acks() + b->standalone_acks();
        c.delivered = a->delivered() + b->delivered();
        c.timers_fired = wheel_a->timers_fired() + wheel_b->timers_fired();
        c.impair_dropped = imp_a->stats().dropped + imp_b->stats().dropped;
        c.end_time = clock.now();
        for (const std::int64_t l : tracker_a.latencies()) c.latency_sum += l;
        for (const std::int64_t l : tracker_b.latencies()) c.latency_sum += l;
        return c;
    }

    IoCounts io() const {
        IoCounts total = io_a->counts();
        total += io_b->counts();
        return total;
    }

    ManualClock clock;
    MsgTracker tracker_a;
    MsgTracker tracker_b;
    std::unique_ptr<Transport> raw_a;
    std::unique_ptr<Transport> raw_b;
    std::unique_ptr<TimerWheel> wheel_a;
    std::unique_ptr<TimerWheel> wheel_b;
    std::unique_ptr<Impairer> imp_a;
    std::unique_ptr<Impairer> imp_b;
    std::unique_ptr<TimedTransport> io_a;
    std::unique_ptr<TimedTransport> io_b;
    std::unique_ptr<NetEndpoint<Core>> a;
    std::unique_ptr<NetEndpoint<Core>> b;
    std::uint64_t polls = 0;
    double rss_before_kb = 0;  // after the trackers, before the program's objects
};

}  // namespace

Report run_duplex(const RunSpec& spec) {
    Report r;
    Totals t;
    const Seq count = spec.quick ? 300 : 2'000;  // per direction, per unit
    const Usage usage0 = usage_now();

    IoCounts io_all;
    sim::Metrics proto;
    std::uint64_t fired = 0;
    std::uint64_t wheel_work = 0;
    std::uint64_t polls = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t anomalies = 0;
    std::uint64_t piggybacked = 0;
    std::uint64_t standalone = 0;
    Metrics imp_ab;
    Metrics imp_ba;
    std::uint64_t sent_ab = 0;
    std::uint64_t sent_ba = 0;
    std::uint64_t recv_ab = 0;
    std::uint64_t recv_ba = 0;
    Counts first;

    const double begin = wall_s();
    for (std::uint64_t unit = 0; unit == 0 || wall_s() - begin < spec.seconds; ++unit) {
        // Freed pages go back to the kernel, so every unit's set-up faults
        // its buffers in as the first one does; otherwise whether the last
        // unit's pages are still mapped depends on the heap's layout.
        malloc_trim(0);
        const std::int64_t t0 = wall_ns();
        Session s(count, runtime::mix_seed(spec.seed, unit));

        const std::uint64_t half = static_cast<std::uint64_t>(count);  // of both directions
        bool snapped = false;
        std::uint64_t snap_allocs = 0;
        std::uint64_t snap_dgrams = 0;
        const Usage u0 = usage_now();
        const std::int64_t w0 = wall_ns();
        const bool ran = s.run([&] {
            if (snapped || static_cast<std::uint64_t>(s.a->delivered() + s.b->delivered()) < half) {
                return;
            }
            snapped = true;
            snap_allocs = allocs_now();
            const IoCounts io = s.io();
            snap_dgrams = io.dgrams_sent + io.dgrams_received;
        });
        const std::int64_t w1 = wall_ns();
        const Usage unit_cpu = usage_now() - u0;
        if (unit == 0) t.session_rss_kb = rss_kb_now() - s.rss_before_kb;
        if (snapped) {
            const IoCounts io = s.io();
            t.steady_allocs += allocs_now() - snap_allocs;
            t.steady_dgrams += io.dgrams_sent + io.dgrams_received - snap_dgrams;
        }
        t.setups_s.push_back(
            static_cast<double>(std::min(s.tracker_a.first_send_wall_ns(),
                                         s.tracker_b.first_send_wall_ns()) -
                                t0) *
            1e-9);
        if (!ran) r.error(fmt("unit %llu wedged", static_cast<unsigned long long>(unit)));
        if (unit == 0) first = s.counts();

        const std::uint64_t unit_mismatches =
            s.a->payload_mismatches() + s.b->payload_mismatches();
        mismatches += unit_mismatches;
        const std::uint64_t expected = static_cast<std::uint64_t>(count) * kPayload;
        std::uint64_t delivered = 0;
        if (unit_mismatches == 0 && s.a->bytes_delivered() == expected &&
            s.b->bytes_delivered() == expected) {
            delivered = std::min<std::uint64_t>(
                static_cast<std::uint64_t>(s.a->delivered() + s.b->delivered()),
                s.tracker_a.acked() + s.tracker_b.acked());
        }
        std::vector<std::int64_t> latencies = s.tracker_a.latencies();
        latencies.insert(latencies.end(), s.tracker_b.latencies().begin(),
                         s.tracker_b.latencies().end());
        t.add_unit(delivered, static_cast<double>(w1 - w0) * 1e-9, unit_cpu,
                   std::move(latencies));
        t.attempted += 2 * static_cast<std::uint64_t>(count);
        anomalies += s.tracker_a.anomalies() + s.tracker_b.anomalies();
        io_all += s.io();
        sent_ab += s.io_a->counts().dgrams_sent;
        sent_ba += s.io_b->counts().dgrams_sent;
        recv_ab += s.io_b->counts().dgrams_received;
        recv_ba += s.io_a->counts().dgrams_received;
        imp_ab += s.imp_a->stats();
        imp_ba += s.imp_b->stats();
        proto.add_counters_from(s.a->metrics());
        proto.add_counters_from(s.b->metrics());
        piggybacked += s.a->piggybacked() + s.b->piggybacked();
        standalone += s.a->standalone_acks() + s.b->standalone_acks();
        fired += s.wheel_a->timers_fired() + s.wheel_b->timers_fired();
        wheel_work += s.wheel_a->fire_work() + s.wheel_b->fire_work();
        polls += s.polls;
    }
    t.whole = usage_now() - usage0;
    t.dgrams = io_all.dgrams_sent;

    // Replay: the first unit again, from the same seed, must repeat every
    // protocol count exactly.
    tracer().pause(true);
    {
        Session replay(count, runtime::mix_seed(spec.seed, 0));
        const bool ran = replay.run([] {});
        if (!ran || !(replay.counts() == first)) {
            r.error("replay of unit 0 diverged from its first run");
        }
        r.note(fmt("replay unit 0: %s (%llu + %llu datagrams, %llu retransmissions, %llu "
                   "piggybacked, end %lld ns)",
                   ran && replay.counts() == first ? "IDENTICAL" : "DIVERGED",
                   static_cast<unsigned long long>(first.dgrams_ab),
                   static_cast<unsigned long long>(first.dgrams_ba),
                   static_cast<unsigned long long>(first.data_retx),
                   static_cast<unsigned long long>(first.piggybacked),
                   static_cast<long long>(first.end_time)));
    }
    tracer().pause(false);

    if (mismatches > 0) r.error(fmt("%llu payload mismatches", (unsigned long long)mismatches));
    if (anomalies > 0) {
        r.error(fmt("%llu frames outside the session's sequence range",
                    static_cast<unsigned long long>(anomalies)));
    }
    finish_report(r, t);

    // Copies still parked on a wheel when a unit ends count as lost here.
    ledger(r, "A->B", sent_ab, recv_ab, imp_ab.dropped, imp_ab.duplicated);
    ledger(r, "B->A", sent_ba, recv_ba, imp_ba.dropped, imp_ba.duplicated);
    report_wire(r, io_all);
    r.set("net.endpoint.self_ns_per_dgram",
          self_ns_per(SpanName::EndpointPoll, io_all.dgrams_sent + io_all.dgrams_received));
    r.set("net.endpoint.polls_per_msg",
          t.delivered ? static_cast<double>(polls) / static_cast<double>(t.delivered) : 0);
    report_wheel(r, fired, wheel_work, t.delivered);
    report_runtime(r, proto, t.delivered, piggybacked, standalone);
    r.note(fmt("duplex: %llu x %zu B per direction per unit, 1 per %lld us each way, w=%llu, "
               "loss %.0f%%, piggyback deferral %lld us, inproc + manual clock",
               static_cast<unsigned long long>(count), kPayload,
               static_cast<long long>(kPace / kMicrosecond),
               static_cast<unsigned long long>(kWindow), kLoss * 100,
               static_cast<long long>(kPiggybackDelay / kMicrosecond)));
    return r;
}

}  // namespace perfbench
