// des: the ba core (runtime::UnboundedSession's) in the discrete-event
// simulator, w=32, 2% loss on both links.
//
// The only workload in which sim's event queue and SimChannel do the
// work; the paper-reproduction experiments E1-E18 all run on this path.
// Message rates count simulated messages per wall second, latencies are
// in simulated time; the run replays its first unit and fails on any
// divergence.

#include <algorithm>

#include "ba/engine_core.hpp"
#include "runtime/engine.hpp"
#include "runtime/session_util.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace bacp;

constexpr Seq kWindow = 32;
constexpr double kLoss = 0.02;

/// The ba core with the sender's two message boundaries observed: each
/// new DATA and each ack arrival feed a MsgTracker, which is how the
/// net workloads time acks from outside the program too.
class TrackedCore : public ba::EngineCore<ba::Sender, ba::Receiver> {
public:
    using Base = ba::EngineCore<ba::Sender, ba::Receiver>;
    struct Options {
        MsgTracker* tracker = nullptr;
    };

    TrackedCore(const runtime::EngineConfig& cfg, Options options)
        : Base(cfg), tracker_(options.tracker) {}

    proto::Data send_new(SimTime now) {
        const proto::Data msg = Base::send_new(now);
        tracker_->note_send(wire::kNoConnId, msg.seq, now);
        return msg;
    }

    void on_ack(const proto::Ack& ack, const runtime::TxView& tx) {
        tracker_->note_ack(wire::kNoConnId, ack.lo, ack.hi, tx.now);
        Base::on_ack(ack, tx);
    }

private:
    MsgTracker* tracker_;
};

using Session = runtime::Engine<TrackedCore>;

runtime::EngineConfig des_config(Seq count, std::uint64_t seed) {
    runtime::EngineConfig cfg;
    cfg.w = kWindow;
    cfg.count = count;
    cfg.data_link = runtime::LinkSpec::lossy(kLoss);
    cfg.ack_link = cfg.data_link;
    cfg.seed = seed;
    return cfg;
}

/// Everything a replay must reproduce exactly.
struct Counts {
    std::uint64_t events = 0;
    std::uint64_t frames = 0;
    std::uint64_t data_retx = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t dup_acks = 0;
    std::uint64_t delivered = 0;
    std::int64_t end_time = 0;
    std::int64_t latency_sum = 0;
    friend bool operator==(const Counts&, const Counts&) = default;
};

std::uint64_t frames_of(Session& s) {
    return s.data_channel().stats().sent + s.ack_channel().stats().sent;
}

Counts counts_of(Session& s, const MsgTracker& tracker) {
    const sim::Metrics& m = s.metrics();
    Counts c;
    c.events = s.simulator().total_fired();
    c.frames = frames_of(s);
    c.data_retx = m.data_retx;
    c.acks_sent = m.acks_sent;
    c.dup_acks = m.dup_acks;
    c.delivered = s.delivered();
    c.end_time = s.simulator().now();
    for (const std::int64_t l : tracker.latencies()) c.latency_sum += l;
    return c;
}

}  // namespace

Report run_des(const RunSpec& spec) {
    Report r;
    Totals t;
    const Seq count = spec.quick ? 20'000 : 200'000;  // messages per unit
    const Usage usage0 = usage_now();

    sim::Metrics proto;
    std::uint64_t events = 0;
    std::uint64_t incomplete = 0;
    Counts first;

    const double begin = wall_s();
    for (std::uint64_t unit = 0; unit == 0 || wall_s() - begin < spec.seconds; ++unit) {
        const runtime::EngineConfig cfg = des_config(count, runtime::mix_seed(spec.seed, unit));
        MsgTracker tracker(1, 0, count);
        const double rss0 = rss_kb_now();
        const std::int64_t t0 = wall_ns();
        Session s(cfg, {&tracker});
        s.start();  // the first window leaves here
        t.setups_s.push_back(static_cast<double>(wall_ns() - t0) * 1e-9);

        const Usage u0 = usage_now();
        const std::int64_t w0 = wall_ns();
        {
            Scope span(SpanName::DesRun);
            s.simulator().run_until(cfg.deadline, cfg.max_events);
        }
        const double unit_wall_s = static_cast<double>(wall_ns() - w0) * 1e-9;
        const Usage unit_cpu = usage_now() - u0;
        if (unit == 0) t.session_rss_kb = rss_kb_now() - rss0;

        const Counts c = counts_of(s, tracker);
        if (unit == 0) first = c;
        if (tracker.anomalies() > 0) r.error("ack for a message never sent");
        if (!s.completed()) ++incomplete;
        t.attempted += count;
        t.add_unit(std::min<std::uint64_t>(c.delivered, count), unit_wall_s, unit_cpu,
                   tracker.latencies());
        t.dgrams += c.frames;
        events += c.events;
        proto.add_counters_from(s.metrics());
    }
    t.whole = usage_now() - usage0;

    // Replay the first unit, stopping at half its simulated time for the
    // steady-state allocation snapshot (E20's window: the second half).
    tracer().pause(true);
    {
        const runtime::EngineConfig cfg = des_config(count, runtime::mix_seed(spec.seed, 0));
        MsgTracker tracker(1, 0, count);
        Session replay(cfg, {&tracker});
        replay.start();
        replay.simulator().run_until(first.end_time / 2, cfg.max_events);
        const std::uint64_t allocs_half = allocs_now();
        const std::uint64_t frames_half = frames_of(replay);
        replay.simulator().run_until(cfg.deadline, cfg.max_events);
        t.steady_allocs = allocs_now() - allocs_half;
        t.steady_dgrams = frames_of(replay) - frames_half;
        const bool same = counts_of(replay, tracker) == first;
        if (!same) r.error("replay of unit 0 diverged from its first run");
        r.note(fmt("replay unit 0: %s (%llu events, %llu frames, %llu retransmissions)",
                   same ? "IDENTICAL" : "DIVERGED", static_cast<unsigned long long>(first.events),
                   static_cast<unsigned long long>(first.frames),
                   static_cast<unsigned long long>(first.data_retx)));
    }
    tracer().pause(false);

    if (incomplete > 0) {
        r.note(fmt("%llu units did not complete", static_cast<unsigned long long>(incomplete)));
    }
    finish_report(r, t);

    const SpanTotals& run = tracer().totals(SpanName::DesRun);
    r.set("sim.ns_per_event",
          events ? static_cast<double>(run.total_ns) / static_cast<double>(events) : 0);
    r.set("sim.events_per_msg",
          t.delivered ? static_cast<double>(events) / static_cast<double>(t.delivered) : 0);
    report_runtime(r, proto, t.delivered, 0, 0);
    r.note(fmt("des: %llu messages per unit, w=%llu, %.0f%% loss both links, uniform 4-6 ms "
               "delay; %llu events, ack latency in simulated time",
               static_cast<unsigned long long>(count), static_cast<unsigned long long>(kWindow),
               kLoss * 100, static_cast<unsigned long long>(events)));
    return r;
}

}  // namespace perfbench
