// E17 -- sojourn latency vs offered load (the hockey stick).
//
// Open-loop Poisson arrivals drive the protocol below, near, and beyond
// its sustainable rate (w/RTT, shaved by loss recoveries -- see E16's
// envelope).  Below the knee, sojourn time is one transfer latency; past
// it, the sender's queue grows without bound and the p99 explodes.  The
// window law therefore predicts the knee's location.
//
// Series: delivered rate and sojourn percentiles vs offered load, for a
// clean and a 2%-lossy link (w = 16, fixed 5 ms delays, capacity ~1600
// and ~1200 msg/s respectively per E16).

#include <cstdio>

#include "analysis/models.hpp"
#include "parallel_sweep.hpp"
#include "runtime/sessions.hpp"
#include "workload/report.hpp"
#include "workload/scenario.hpp"

using namespace bacp;
using namespace bacp::literals;

namespace {

struct Outcome {
    double rate = 0;
    double p50 = 0, p99 = 0;
    bool ok = false;
};

Outcome run_load(double offered_per_sec, double loss) {
    runtime::EngineConfig cfg;
    cfg.w = 16;
    cfg.count = 4000;
    cfg.data_link = loss > 0 ? runtime::LinkSpec::lossy(loss, 5_ms, 5_ms)
                             : runtime::LinkSpec::lossless(5_ms, 5_ms);
    cfg.ack_link = cfg.data_link;
    cfg.arrival_interval = static_cast<SimTime>(1e9 / offered_per_sec);
    cfg.poisson_arrivals = true;
    cfg.seed = 55;
    runtime::UnboundedSession session(cfg);
    const auto metrics = session.run();
    Outcome out;
    out.ok = session.completed();
    out.rate = metrics.throughput_msgs_per_sec();
    out.p50 = to_seconds(session.latency().delivery.quantile(0.5)) * 1e3;
    out.p99 = to_seconds(session.latency().delivery.quantile(0.99)) * 1e3;
    return out;
}

}  // namespace

int main() {
    std::printf("E17: sojourn latency vs offered load (w=16, fixed 5 ms links,\n"
                "    Poisson arrivals, 4000 msgs; knee predicted by the window law)\n");
    const double clean_capacity = analysis::window_throughput(16, 0.010, 0.011, 0, 0);
    std::printf("  predicted knee: clean ~%.0f msg/s, 2%% loss within the E16 envelope\n",
                clean_capacity);

    workload::Table table({"offered msg/s", "loss", "delivered msg/s", "p50 ms", "p99 ms"});
    const double losses[] = {0.0, 0.02};
    const double offered_rates[] = {200.0, 800.0, 1200.0, 1500.0, 1800.0, 2400.0};
    // loss x offered-load grid; each point is one self-contained session,
    // merged by index for thread-count-independent output.
    const std::size_t n_rates = std::size(offered_rates);
    bench::ParallelSweep sweep;
    const auto outcomes = sweep.run(std::size(losses) * n_rates, [&](std::size_t job) {
        return run_load(offered_rates[job % n_rates], losses[job / n_rates]);
    });
    for (std::size_t li = 0; li < std::size(losses); ++li) {
        for (std::size_t ri = 0; ri < n_rates; ++ri) {
            const auto& out = outcomes[li * n_rates + ri];
            table.add_row({workload::fmt(offered_rates[ri], 0),
                           workload::fmt(losses[li] * 100, 0) + "%",
                           out.ok ? workload::fmt(out.rate, 0) : std::string("INCOMPLETE"),
                           workload::fmt(out.p50, 1), workload::fmt(out.p99, 1)});
        }
    }
    table.print("E17: the hockey stick");
    std::printf("\nExpected shape: sojourn stays ~flat (one transfer latency) below the\n"
                "knee and explodes past it; the delivered rate saturates at the E16\n"
                "ceiling.  Loss moves the knee left.\n");
    return 0;
}
