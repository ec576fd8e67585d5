// E23 -- self-stabilization: fault injection and convergence cost.
//
// The paper's §III argument is a safety argument: assertions 6-8 hold
// along every legal execution.  This bench asks the follow-up question
// a protocol deployed on real hardware faces: when state is *illegally*
// perturbed -- bit flips in a scoreboard, a crashed-and-restarted peer,
// a channel that duplicates unboundedly or corrupts below the CRC --
// how long until the system is back inside the invariant envelope, and
// what does the detour cost in goodput?
//
// The sweep crosses every chaos::FaultClass with the three
// retransmission protocols (block-ack, go-back-N, selective repeat) and
// two channel loads.  Convergence is *exact* for BA (the invariant
// checker probes live sender/receiver/channel snapshots on a
// sub-timeout grid) and *approximate* for the baselines (in-order
// delivery progress resumed, transfer completed).  A second table runs
// the wire-level crash/restart: a real client endpoint dies mid-window over
// net::InprocHub and rejoins its net::Server session by bumping the
// connection epoch, with exactly-once delivery required.
//
//   --quick           smaller transfers, fewer rounds (CI smoke; same gate)
//   --check-budget X  exit 1 unless every point converged within its
//                     budget and completed, and the epoch rejoin is
//                     exactly-once; X is the worst tolerated convergence
//                     time in multiples of the retransmission timeout
//                     (0 = any time within the harness budget)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "chaos/crash_restart.hpp"
#include "chaos/harness.hpp"
#include "json_out.hpp"
#include "runtime/sessions.hpp"
#include "workload/report.hpp"

namespace {

using namespace bacp;
using BaCore = ba::EngineCore<ba::Sender, ba::Receiver>;

struct Point {
    std::string protocol;
    chaos::FaultClass fault;
    double loss;
    chaos::ConvergenceReport report;
    SimTime timeout;
};

runtime::EngineConfig sweep_config(Seq count, double loss, std::uint64_t seed) {
    runtime::EngineConfig cfg;
    cfg.w = 8;
    cfg.count = count;
    cfg.data_link = loss > 0 ? runtime::LinkSpec::lossy(loss)
                             : runtime::LinkSpec::lossless();
    cfg.ack_link = cfg.data_link;
    cfg.seed = seed;
    return cfg;
}

template <typename Core>
Point run_point(const char* protocol, chaos::FaultClass fault, Seq count, double loss,
                std::size_t rounds, std::uint64_t seed) {
    const runtime::EngineConfig cfg = sweep_config(count, loss, 42);
    chaos::FaultSpec spec;
    spec.fault = fault;
    spec.rounds = rounds;
    spec.seed = seed;
    Point p;
    p.protocol = protocol;
    p.fault = fault;
    p.loss = loss;
    p.timeout = runtime::effective_timeout(cfg);
    p.report = chaos::run_faulted<Core>(cfg, {}, spec);
    return p;
}

double ms(SimTime t) { return static_cast<double>(t) / 1e6; }

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    double budget = -1;
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
    const Seq count = quick ? 300 : 1500;
    const std::size_t rounds = quick ? 2 : 4;
    const std::vector<double> loads = quick ? std::vector<double>{0.05}
                                            : std::vector<double>{0.02, 0.15};

    std::printf("E23: self-stabilization under injected faults, %llu msgs/run, "
                "%zu fault round(s) per run\n"
                "     (exact invariant probes for ba; delivery-progress "
                "convergence for gbn/sr)\n\n",
                static_cast<unsigned long long>(count), rounds);

    workload::Table table({"protocol", "fault", "loss", "inj", "converged",
                           "worst conv", "goodput cost", "extra retx", "mode"});
    bench::Json points = bench::Json::array();
    std::vector<Point> sweep;
    std::uint64_t seed = 7;
    for (const double loss : loads) {
        for (const chaos::FaultClass fault : chaos::kAllFaultClasses) {
            sweep.push_back(
                run_point<BaCore>("ba", fault, count, loss, rounds, seed += 13));
            sweep.push_back(run_point<baselines::GbnCore>("gbn", fault, count, loss,
                                                          rounds, seed += 13));
            sweep.push_back(run_point<baselines::SrCore>("sr", fault, count, loss,
                                                         rounds, seed += 13));
        }
    }

    bool gate_failed = false;
    for (const Point& p : sweep) {
        const chaos::ConvergenceReport& r = p.report;
        table.add_row({p.protocol, chaos::to_string(p.fault), workload::fmt(p.loss, 2),
                       std::to_string(r.injections), r.converged ? "yes" : "NO",
                       workload::fmt(ms(r.worst_convergence), 2) + " ms",
                       workload::fmt(r.goodput_cost() * 100, 1) + " %",
                       std::to_string(r.extra_retx()),
                       r.exact ? "exact" : "approx"});
        points.push(
            bench::Json::object()
                .set("protocol", bench::Json::str(p.protocol))
                .set("fault", bench::Json::str(chaos::to_string(p.fault)))
                .set("loss", bench::Json::num(p.loss))
                .set("injections",
                     bench::Json::num(static_cast<std::uint64_t>(r.injections)))
                .set("converged", bench::Json::boolean(r.converged))
                .set("completed", bench::Json::boolean(r.completed))
                .set("budget_exceeded", bench::Json::boolean(r.budget_exceeded))
                .set("exact", bench::Json::boolean(r.exact))
                .set("worst_convergence_ns",
                     bench::Json::num(static_cast<std::uint64_t>(r.worst_convergence)))
                .set("timeout_ns",
                     bench::Json::num(static_cast<std::uint64_t>(p.timeout)))
                .set("goodput_cost", bench::Json::num(r.goodput_cost()))
                .set("extra_retx", bench::Json::num(r.extra_retx()))
                .set("probes", bench::Json::num(static_cast<std::uint64_t>(r.probes)))
                .set("dirty_probes",
                     bench::Json::num(static_cast<std::uint64_t>(r.dirty_probes))));
        if (budget >= 0) {
            // Every campaign must land at least one fault, converge, and
            // finish the transfer; a positive X also bounds how long the
            // worst recovery may take, in timeouts.
            if (r.injections == 0 || !r.converged) gate_failed = true;
            if (budget > 0 &&
                static_cast<double>(r.worst_convergence) >
                    budget * static_cast<double>(p.timeout)) {
                gate_failed = true;
            }
        }
    }
    table.print("E23: convergence after injected faults (DES)");

    // ---- wire-level crash + epoch rejoin ----------------------------------
    chaos::CrashRestartSpec crash;
    if (!quick) {
        crash.first_count = 96;
        crash.crash_after = 40;
        crash.second_count = 64;
    }
    workload::Table rejoin({"loss", "crashed mid-window", "rejoined", "exactly-once",
                            "delivered pre/post", "stale drops", "rejoin->done"});
    bench::Json rejoin_points = bench::Json::array();
    for (const double loss : {0.0, 0.1}) {
        chaos::CrashRestartSpec spec = crash;
        spec.loss = loss;
        const chaos::CrashRestartReport r = chaos::run_crash_restart<BaCore>(spec);
        rejoin.add_row({workload::fmt(loss, 2), r.crashed_mid_window ? "yes" : "NO",
                        r.rejoined ? "yes" : "NO", r.exactly_once ? "yes" : "NO",
                        std::to_string(r.delivered_before_crash) + " / " +
                            std::to_string(r.delivered_after_rejoin),
                        std::to_string(r.stale_epoch_drops),
                        workload::fmt(ms(r.rejoin_to_complete), 2) + " ms"});
        rejoin_points.push(
            bench::Json::object()
                .set("loss", bench::Json::num(loss))
                .set("ok", bench::Json::boolean(r.ok()))
                .set("delivered_before_crash", bench::Json::num(r.delivered_before_crash))
                .set("delivered_after_rejoin", bench::Json::num(r.delivered_after_rejoin))
                .set("stale_epoch_drops", bench::Json::num(r.stale_epoch_drops))
                .set("sessions_opened", bench::Json::num(r.sessions_opened))
                .set("rejoin_to_complete_ns",
                     bench::Json::num(static_cast<std::uint64_t>(r.rejoin_to_complete))));
        if (budget >= 0 && !r.ok()) gate_failed = true;
    }
    rejoin.print("E23: mid-window crash + epoch rejoin (net::Server, exactly-once)");

    bench::BenchOutput out("e23_stabilization");
    out.meta("count", bench::Json::num(static_cast<std::uint64_t>(count)))
        .meta("rounds", bench::Json::num(static_cast<std::uint64_t>(rounds)))
        .meta("quick", bench::Json::boolean(quick))
        .meta("points", std::move(points))
        .meta("rejoin_points", std::move(rejoin_points))
        .add_table("stabilization sweep", table)
        .add_table("epoch rejoin", rejoin);
    if (!out.write()) std::printf("warning: could not write BENCH_e23 output files\n");

    if (budget >= 0) {
        std::printf("\nstabilization gate (every fault class converges, rejoin "
                    "exactly-once): %s\n",
                    gate_failed ? "FAIL" : "ok");
        if (gate_failed) return 1;
    }
    std::printf("Machine-readable copies: BENCH_e23_stabilization.{json,csv}\n");
    return 0;
}
