// E18 -- cross-protocol sweep through the unified engine.
//
// The point of runtime::Engine: ONE EngineConfig object drives block
// acknowledgment, go-back-N, and selective repeat -- the sessions below
// differ only in the core type plugged into the engine, so every
// protocol sees the identical channel model, seed, and RNG streams.
//
// Part 1 sweeps loss under each protocol's classic timer discipline.
// Part 2 fixes loss and sweeps all four timeout disciplines per core --
// a comparison that was impossible when only BaSession exposed
// TimeoutMode.

#include <cstdio>
#include <string>

#include "json_out.hpp"
#include "parallel_sweep.hpp"
#include "runtime/sessions.hpp"
#include "workload/report.hpp"

using namespace bacp;
using namespace bacp::literals;
using runtime::EngineConfig;
using runtime::TimeoutMode;

namespace {

EngineConfig shared_config(double loss) {
    EngineConfig cfg;
    cfg.w = 16;
    cfg.count = 3000;
    cfg.data_link = loss > 0 ? runtime::LinkSpec::lossy(loss) : runtime::LinkSpec::lossless();
    cfg.ack_link = cfg.data_link;
    cfg.seed = 18;
    return cfg;
}

struct Row {
    double throughput = -1;
    double acks_per_msg = 0;
    double retx_frac = 0;
};

template <typename Session>
Row run(const EngineConfig& cfg) {
    Session session(cfg);
    const auto m = session.run();
    if (!session.completed()) return {};
    return {m.throughput_msgs_per_sec(), m.acks_per_delivered(), m.retx_fraction()};
}

std::string cell(const Row& r) {
    if (r.throughput < 0) return "INCOMPLETE";
    return workload::fmt(r.throughput, 0) + " msg/s  " + workload::fmt(r.acks_per_msg, 2) +
           " ack/msg  " + workload::fmt(r.retx_frac * 100, 1) + "% retx";
}

/// One job per (config row, protocol core) cell: job % 3 selects the
/// core, job / 3 the config.  Merged by index, so the tables render
/// byte-identically at any thread count.
template <typename MakeConfig>
std::vector<Row> sweep_cores(std::size_t configs, MakeConfig make_config) {
    bench::ParallelSweep sweep;
    return sweep.run(configs * 3, [&](std::size_t job) -> Row {
        const EngineConfig cfg = make_config(job / 3);
        switch (job % 3) {
            case 0: return run<runtime::UnboundedSession>(cfg);
            case 1: return run<runtime::GbnSession>(cfg);
            default: return run<runtime::SrSession>(cfg);
        }
    });
}

}  // namespace

int main() {
    std::printf("E18: three protocol cores through one EngineConfig\n"
                "     (w=16, 3000 msgs, 4-6 ms reordering links, seed 18)\n");

    workload::Table by_loss({"loss", "block-ack", "go-back-n", "selective-repeat"});
    const double losses[] = {0.0, 0.02, 0.05, 0.1, 0.2};
    const auto loss_rows = sweep_cores(
        std::size(losses), [&](std::size_t i) { return shared_config(losses[i]); });
    for (std::size_t i = 0; i < std::size(losses); ++i) {
        by_loss.add_row({workload::fmt(losses[i] * 100, 0) + "%", cell(loss_rows[i * 3]),
                         cell(loss_rows[i * 3 + 1]), cell(loss_rows[i * 3 + 2])});
    }
    by_loss.print("E18a: identical config, identical channels -- only the core differs");

    workload::Table by_mode({"timeout mode", "block-ack", "go-back-n", "selective-repeat"});
    const TimeoutMode modes[] = {TimeoutMode::OracleSimple, TimeoutMode::OraclePerMessage,
                                 TimeoutMode::SimpleTimer, TimeoutMode::PerMessageTimer};
    const auto mode_rows = sweep_cores(std::size(modes), [&](std::size_t i) {
        EngineConfig cfg = shared_config(0.1);
        cfg.timeout_mode = modes[i];
        return cfg;
    });
    for (std::size_t i = 0; i < std::size(modes); ++i) {
        by_mode.add_row({to_string(modes[i]), cell(mode_rows[i * 3]),
                         cell(mode_rows[i * 3 + 1]), cell(mode_rows[i * 3 + 2])});
    }
    by_mode.print("E18b: every timer discipline, every core (10% loss)");

    bench::BenchOutput out("e18_cross_protocol");
    out.meta("w", bench::Json::num(16))
        .meta("count", bench::Json::num(3000))
        .meta("seed", bench::Json::num(18))
        .add_table("identical config, identical channels -- only the core differs", by_loss)
        .add_table("every timer discipline, every core (10% loss)", by_mode);
    if (!out.write()) std::printf("warning: could not write BENCH_e18 output files\n");

    std::printf("\nExpected shape: block-ack holds its throughput with ~1/w the acks;\n"
                "go-back-N pays whole-window retransmits off one timer; the oracle\n"
                "rows bound what any realistic timer discipline can achieve.\n"
                "Machine-readable copies: BENCH_e18_cross_protocol.{json,csv}\n");
    return 0;
}
