// perfbench: the repository's benchmark.  One workload per process.
//
//   perfbench --workload fleet|bulk|duplex|des --seed N --seconds S
//             --trace 0|1 [--quick] [--spans PATH]
//
// Prints human-readable lines starting with '#' (run metadata, ledgers,
// sample counts, replay checks), then one JSON object on the last line:
// {"correct", "attempted", "failed", "metrics"}.  An untraced run
// reports the end-to-end metrics, a traced run the per-layer ones (and
// its own end-to-end figures as trace.*, whose difference from the
// untraced run is the tracing overhead).  Exits 1 on a payload mismatch,
// a replay divergence, a broken ledger or any other output error.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/offload.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct MetricDef {
    const char* name;
    const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"msgs_per_s", "1/s"},
    {"ack_p50_us", "us"},
    {"dgrams_per_msg", "count"},
    {"cpu_us_per_msg", "us"},
    {"peak_rss_mb", "MB"},
    {"rss_kb_per_session", "KB"},
    {"setup_s", "s"},
};

// ack_p99_us is reported here, without a bound: on a shared host it
// flips between modes from run to run (scheduler wake-ups in bulk,
// kernel-drop storms in fleet), beyond any bound that would still catch
// a regression.
constexpr MetricDef kPerLayer[] = {
    {"ack_p99_us", "us"},
    {"net.transport.send_ns_per_dgram", "ns"},
    {"net.transport.recv_ns_per_dgram", "ns"},
    {"net.transport.dgrams_per_send_call", "count"},
    {"net.transport.empty_recv_share", "ratio"},
    {"net.transport.lost_dgrams_share", "ratio"},
    {"net.transport.gso_segs_per_send", "count"},
    {"net.transport.gro_segs_per_recv", "count"},
    {"net.server.self_ns_per_dgram", "ns"},
    {"net.server.construct_s", "s"},
    {"net.server.sessions_held_peak", "count"},
    {"net.server.acks_per_send_call", "count"},
    {"net.server.decode_errors", "count"},
    {"net.fleet.self_ns_per_dgram", "ns"},
    {"net.fleet.construct_s", "s"},
    {"net.timer_wheel.fired_per_msg", "count"},
    {"net.timer_wheel.work_ops_per_fired", "count"},
    {"net.endpoint.self_ns_per_dgram", "ns"},
    {"net.endpoint.idle_share", "ratio"},
    {"net.endpoint.polls_per_msg", "count"},
    {"wire.decode_ns_per_dgram", "ns"},
    {"wire.bytes_per_dgram", "B"},
    {"runtime.retx_per_msg", "count"},
    {"runtime.acks_per_msg", "count"},
    {"runtime.piggyback_share", "ratio"},
    {"runtime.dup_acks_per_msg", "count"},
    {"runtime.ack_samples", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.events_per_msg", "count"},
    {"process.user_cpu_s", "s"},
    {"process.sys_cpu_s", "s"},
    {"process.minflt_per_session", "count"},
    {"process.steady_allocs_per_dgram", "count"},
    {"failed_ratio", "ratio"},
    {"trace.coverage", "ratio"},
    {"trace.msgs_per_s", "1/s"},
    {"trace.cpu_us_per_msg", "us"},
    {"trace.ack_p50_us", "us"},
};

// Spans kept in memory in a traced run (40 B each); beyond it spans
// are counted as dropped and only the per-name totals grow.
constexpr std::size_t kSpanCapacity = std::size_t{1} << 22;

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload fleet|bulk|duplex|des --seed N --seconds S "
                 "--trace 0|1 [--quick] [--spans PATH]\n",
                 argv0);
    return 2;
}

template <std::size_t N>
void print_metrics(const Report& r, const MetricDef (&defs)[N]) {
    for (std::size_t i = 0; i < N; ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                    defs[i].name, r.get(defs[i].name), defs[i].unit);
    }
}

}  // namespace

int main(int argc, char** argv) {
    std::string workload;
    std::string spans_path;
    RunSpec spec;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const auto arg = [&](const char* name) {
            return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
        };
        if (arg("--workload")) {
            workload = argv[++i];
        } else if (arg("--seed")) {
            spec.seed = std::strtoull(argv[++i], nullptr, 10);
            have_seed = true;
        } else if (arg("--seconds")) {
            spec.seconds = std::atof(argv[++i]);
            have_seconds = true;
        } else if (arg("--trace")) {
            spec.trace = std::atoi(argv[++i]) != 0;
            have_trace = true;
        } else if (arg("--spans")) {
            spans_path = argv[++i];
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            spec.quick = true;
        } else {
            return usage(argv[0]);
        }
    }
    if (!have_seed || !have_seconds || !have_trace || !(spec.seconds > 0)) return usage(argv[0]);

    Report (*run)(const RunSpec&) = nullptr;
    if (workload == "fleet") run = run_fleet;
    if (workload == "bulk") run = run_bulk;
    if (workload == "duplex") run = run_duplex;
    if (workload == "des") run = run_des;
    if (run == nullptr) return usage(argv[0]);

    if (spec.trace) tracer().enable(kSpanCapacity);
    Report r = run(spec);

    const bacp::net::OffloadCaps& caps = bacp::net::offload_caps();
    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d quick=%d\n",
                workload.c_str(), static_cast<unsigned long long>(spec.seed), spec.seconds,
                spec.trace ? 1 : 0, spec.quick ? 1 : 0);
    std::printf("# machine: nproc=%ld build=%s offload caps gso=%d gro=%d uring=%d, "
                "auto resolves to %s\n",
                sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE, caps.gso, caps.gro,
                caps.uring,
                bacp::net::offload_mode_name(bacp::net::resolve_offload(bacp::net::OffloadMode::Auto)));
    for (const std::string& line : r.notes) std::printf("# %s\n", line.c_str());
    if (spec.trace) {
        std::printf("# spans: %zu recorded, %llu dropped\n", tracer().recorded(),
                    static_cast<unsigned long long>(tracer().dropped()));
        for (std::size_t i = 0; i < static_cast<std::size_t>(SpanName::kCount); ++i) {
            const SpanTotals& s = tracer().totals(static_cast<SpanName>(i));
            if (s.count == 0) continue;
            std::printf("# span %-22s count %10llu  total %12.6f s  self %12.6f s\n",
                        span_name(static_cast<SpanName>(i)),
                        static_cast<unsigned long long>(s.count), s.total_ns * 1e-9,
                        s.self_ns * 1e-9);
        }
        if (!spans_path.empty() && !tracer().write(spans_path)) {
            r.error("could not write " + spans_path);
        }
    }
    if (!spec.trace) {
        for (const MetricDef& m : kPerLayer) {
            if (r.get(m.name) != 0) std::printf("# %s = %.6g %s\n", m.name, r.get(m.name), m.unit);
        }
    }
    for (const Report::Metric& m : r.metrics) {
        if (!std::isfinite(m.value)) r.error("metric " + m.name + " is not finite");
    }
    for (const std::string& e : r.errors) std::printf("# ERROR: %s\n", e.c_str());

    const bool correct = r.errors.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    if (spec.trace) {
        print_metrics(r, kPerLayer);
    } else {
        print_metrics(r, kEndToEnd);
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
}
