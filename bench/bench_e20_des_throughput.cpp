// E20 -- discrete-event simulator hot-path throughput and allocation budget.
//
// Every experiment E1-E18 is regenerated by driving sim::Simulator through
// millions of events, so the simulator's events/sec IS the regen budget.
// This bench measures, for the ba/gbn/sr cores through the unified
// runtime::Engine:
//
//   * events/sec (wall clock, whole run), and
//   * heap allocations per event, split into whole-run and *steady-state*
//     (second half of simulated time, after slabs, scratch vectors, and
//     dense tables have reached their high-water marks).
//
// The steady-state figure is the perf-regression gate wired into
// scripts/check.sh and CI: after the slab event queue + pooled engine
// rewrite it must be exactly 0 for every core, and unlike wall-clock
// numbers it is stable on shared CI runners.
//
// Measurement protocol (deterministic): each configuration runs twice
// with the same seed.  The first run calibrates the simulated end time
// (and warms the CPU); the second schedules a marker event at half that
// simulated time which snapshots the allocation and event counters, so
// "steady state" is exactly the second half of the run.
//
//   --quick            smaller transfer (CI smoke; same gate)
//   --check-budget X   exit nonzero when any steady-state allocs/event
//                      exceeds X (the checked-in budget lives in
//                      scripts/check.sh)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "json_out.hpp"
#include "runtime/sessions.hpp"
#include "workload/report.hpp"

// ---- counting allocator hook ----------------------------------------------
// memory_probe.hpp replaces global operator new/delete for this binary:
// every heap allocation made anywhere in the process is counted.

#include "memory_probe.hpp"

// ---- the bench -------------------------------------------------------------

using namespace bacp;
using runtime::EngineConfig;

namespace {

struct Measure {
    std::uint64_t events = 0;        // total simulator events fired
    double wall_sec = 0;             // wall clock of the measured run
    std::uint64_t allocs_total = 0;  // heap allocations, whole run
    std::uint64_t allocs_steady = 0; // heap allocations, second half
    std::uint64_t events_steady = 0; // events fired in the second half
    bool completed = false;

    double events_per_sec() const { return wall_sec > 0 ? events / wall_sec : 0; }
    double allocs_per_event() const {
        return events > 0 ? static_cast<double>(allocs_total) / events : 0;
    }
    double steady_allocs_per_event() const {
        return events_steady > 0 ? static_cast<double>(allocs_steady) / events_steady : 0;
    }
};

EngineConfig bench_config(double loss, Seq count) {
    EngineConfig cfg;
    cfg.w = 32;
    cfg.count = count;
    cfg.data_link = loss > 0 ? runtime::LinkSpec::lossy(loss) : runtime::LinkSpec::lossless();
    cfg.ack_link = cfg.data_link;
    cfg.seed = 20;
    return cfg;
}

template <typename Session>
Measure run_one(double loss, Seq count) {
    // Calibration run: learn the simulated end time for this exact
    // (deterministic) configuration.
    SimTime end_time = 0;
    {
        Session session(bench_config(loss, count));
        const auto m = session.run();
        end_time = m.end_time;
    }

    // Measured run: markers at half and at the end of the simulated time
    // bracket the steady-state window -- the first separates warm-up
    // (slab growth, table reserves) from steady state, the second keeps
    // post-run teardown (returning the Metrics copy) out of the window.
    Session session(bench_config(loss, count));
    auto& sim = session.simulator();
    std::uint64_t allocs_at_half = 0, allocs_at_end = 0;
    std::uint64_t events_at_half = 0, events_at_end = 0;
    sim.schedule_at(end_time / 2, [&] {
        allocs_at_half = memprobe::allocs_now();
        events_at_half = sim.total_fired();
    });
    sim.schedule_at(end_time, [&] {
        allocs_at_end = memprobe::allocs_now();
        events_at_end = sim.total_fired();
    });

    const std::uint64_t allocs_before = memprobe::allocs_now();
    const auto wall_start = std::chrono::steady_clock::now();
    session.run();
    const auto wall_end = std::chrono::steady_clock::now();

    Measure out;
    out.completed = session.completed();
    out.events = sim.total_fired();
    out.wall_sec = std::chrono::duration<double>(wall_end - wall_start).count();
    out.allocs_total = memprobe::allocs_now() - allocs_before;
    out.allocs_steady = allocs_at_end - allocs_at_half;
    out.events_steady = events_at_end - events_at_half;
    return out;
}

struct RowSpec {
    const char* core;
    double loss;
    Measure (*run)(double, Seq);
};

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    double budget = -1.0;  // < 0: report only, no gate
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--check-budget") == 0 && i + 1 < argc) {
            budget = std::atof(argv[++i]);
        } else {
            std::fprintf(stderr, "usage: %s [--quick] [--check-budget X]\n", argv[0]);
            return 2;
        }
    }
    const Seq count = quick ? 20'000 : 200'000;

    std::printf("E20: DES hot-path throughput (w=32, %llu msgs, seed 20)\n",
                static_cast<unsigned long long>(count));

    const RowSpec rows[] = {
        {"ba", 0.0, run_one<runtime::UnboundedSession>},
        {"ba", 0.02, run_one<runtime::UnboundedSession>},
        {"gbn", 0.0, run_one<runtime::GbnSession>},
        {"gbn", 0.02, run_one<runtime::GbnSession>},
        {"sr", 0.0, run_one<runtime::SrSession>},
        {"sr", 0.02, run_one<runtime::SrSession>},
    };

    workload::Table table({"core", "loss", "events", "Mev/s", "ns/event", "allocs/event",
                           "steady allocs/event"});
    bench::Json json_rows = bench::Json::array();
    bool over_budget = false;
    double min_mevs = -1;
    for (const auto& row : rows) {
        const Measure m = row.run(row.loss, count);
        const double mevs = m.events_per_sec() / 1e6;
        if (min_mevs < 0 || mevs < min_mevs) min_mevs = mevs;
        const double ns_per_event = m.events > 0 ? m.wall_sec * 1e9 / m.events : 0;
        table.add_row({row.core, workload::fmt(row.loss * 100, 0) + "%",
                       std::to_string(m.events), workload::fmt(mevs, 2),
                       workload::fmt(ns_per_event, 0), workload::fmt(m.allocs_per_event(), 4),
                       workload::fmt(m.steady_allocs_per_event(), 6)});
        json_rows.push(bench::Json::object()
                           .set("core", bench::Json::str(row.core))
                           .set("loss", bench::Json::num(row.loss))
                           .set("completed", bench::Json::boolean(m.completed))
                           .set("events", bench::Json::num(m.events))
                           .set("wall_sec", bench::Json::num(m.wall_sec))
                           .set("events_per_sec", bench::Json::num(m.events_per_sec()))
                           .set("allocs_total", bench::Json::num(m.allocs_total))
                           .set("allocs_per_event", bench::Json::num(m.allocs_per_event()))
                           .set("steady_allocs", bench::Json::num(m.allocs_steady))
                           .set("steady_events", bench::Json::num(m.events_steady))
                           .set("steady_allocs_per_event",
                                bench::Json::num(m.steady_allocs_per_event())));
        if (budget >= 0 && m.steady_allocs_per_event() > budget) over_budget = true;
    }
    table.print("E20: events/sec and allocations/event through runtime::Engine");

    bench::BenchOutput out("e20");
    out.meta("w", bench::Json::num(32))
        .meta("count", bench::Json::num(static_cast<std::uint64_t>(count)))
        .meta("seed", bench::Json::num(20))
        .meta("quick", bench::Json::boolean(quick))
        .meta("rows", std::move(json_rows))
        .add_table("events/sec and allocations/event", table);
    if (!out.write()) std::printf("warning: could not write BENCH_e20 output files\n");

    std::printf("\nSteady state = second half of simulated time (slabs and dense tables\n"
                "at their high-water marks).  Machine-readable: BENCH_e20.{json,csv}\n");
    if (budget >= 0) {
        std::printf("budget gate: steady allocs/event <= %g: %s\n", budget,
                    over_budget ? "FAIL" : "ok");
        if (over_budget) return 1;
    }
    (void)min_mevs;
    return 0;
}
