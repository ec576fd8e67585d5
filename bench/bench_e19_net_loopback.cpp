// E19 -- the real-time runtime over an impaired loopback channel.
//
// The net/ counterpart of E18: the SAME three cores (block ack,
// go-back-N, selective repeat) the DES engine sweeps, now serialized
// through wire::codec and pushed through actual UDP sockets with seeded
// loss, duplication, reorder, and delay at the transport boundary.  Each
// protocol moves a >= 1 MB transfer; the hard assertions are the
// protocol guarantee (everything delivered, zero payload corruption --
// CRC-verified end to end), and the reported figure is goodput.
//
// The second table isolates the batch transport API: the same block-ack
// transfer over a CLEAN loopback (no impairment -- per-copy delay jitter
// fragments batches onto timers, hiding the sendmmsg amortization), run
// once with the default window-sized batch and once with cfg.batch = 1,
// the pre-batch one-syscall-per-datagram shape.  Reported: goodput,
// datagrams per send syscall, and the speedup.  E21 measures the raw
// transport layer under the allocation gate; this table shows the same
// win end to end through the protocol engine.
//
// --inproc switches to InprocTransport + ManualClock, where a run is a
// pure function of its seed: each protocol runs twice and the bench
// fails unless both runs deliver byte-identical counts.  That mode is
// the reproducibility anchor for this experiment; UDP timings are
// machine-dependent by nature.  --quick shrinks the transfers for CI
// smoke use (assertions keep full strength; the timing figures do not).

#include <cstdio>
#include <cstring>
#include <string>

#include "json_out.hpp"
#include "runtime/sessions.hpp"
#include "workload/report.hpp"

using namespace bacp;
using namespace bacp::literals;

namespace {

constexpr std::size_t kPayload = 1024;
constexpr double kLoss = 0.05;
constexpr std::uint64_t kSeed = 19;

// x 1 KiB payload: ~1.1 MB > 1 MB floor (80 KiB in --quick smoke runs).
Seq g_count = 1100;

net::NetConfig config() {
    net::NetConfig cfg;
    cfg.w = 32;
    cfg.count = g_count;
    cfg.payload_size = kPayload;
    cfg.impair = net::ImpairSpec::lossy(kLoss);
    cfg.seed = kSeed;
    cfg.link_lifetime = 20 * kMillisecond;
    cfg.deadline = 120 * kSecond;
    return cfg;
}

template <typename Engine>
net::NetReport run_once(net::NetMode mode) {
    Engine engine(config(), {}, mode);
    return engine.run();
}

/// The duplex scenario: the same transfer with an equal reverse flow
/// sharing the socket pair and acks deferred onto reverse DATA (wire
/// type 4).  E25 owns the piggyback-ratio headline; this row pins the
/// scenario into the loopback suite alongside the one-way cores.
net::NetReport run_duplex(net::NetMode mode) {
    net::NetConfig cfg = config();
    cfg.reverse_count = g_count;
    cfg.piggyback = true;
    // Paced arrivals, not bulk: closed-loop reverse DATA only moves when
    // acks arrive, and acks are exactly what deferral holds back -- a
    // clock-driven workload gives every deferred ack a carrier (E25
    // explores this dynamic; its paced scenario is the ratio headline).
    cfg.arrival_interval = kMillisecond;
    net::BaNetEngine engine(cfg, {}, mode);
    return engine.run();
}

std::string cell(const net::NetReport& r) {
    if (!r.completed) return "INCOMPLETE";
    return workload::fmt(r.goodput_mbps(), 1) + " Mbit/s  " +
           workload::fmt(r.metrics.retx_fraction() * 100, 1) + "% retx  " +
           workload::fmt(r.metrics.acks_per_delivered(), 2) + " ack/msg";
}

struct Outcome {
    bool ok = true;
    workload::Table table{{"protocol", "result", "MB", "dgram/sendmmsg", "acks coalesced",
                           "corrupt", "decode errs"}};
    bench::Json counters = bench::Json::object();

    void add_row(const char* name, const net::NetReport& r) {
        table.add_row({name, cell(r),
                       workload::fmt(static_cast<double>(r.bytes_delivered) / 1e6, 2),
                       workload::fmt(r.datagrams_per_send_syscall(), 2),
                       std::to_string(r.acks_coalesced), std::to_string(r.payload_mismatches),
                       std::to_string(r.metrics.decode_errors)});
        counters.set(name, bench::Json::object()
                               .set("protocol", bench::counters_json(r.metrics))
                               .set("transport", bench::counters_json(r.transport_totals()))
                               .set("impair_sr", bench::counters_json(r.impair_sr))
                               .set("impair_rs", bench::counters_json(r.impair_rs))
                               .set("piggybacked", bench::Json::num(r.piggybacked))
                               .set("standalone_acks", bench::Json::num(r.standalone_acks))
                               .set("acks_coalesced", bench::Json::num(r.acks_coalesced)));
        // No core here wraps its ack ranges, so the ack ledger is exact.
        ok &= r.completed && r.payload_mismatches == 0 &&
              r.bytes_delivered >= g_count * kPayload && r.ack_ledger_balances();
    }

    template <typename Engine>
    void run(const char* name) {
        add_row(name, run_once<Engine>(net::NetMode::Udp));
    }

    void run_duplex_row() {
        const net::NetReport r = run_duplex(net::NetMode::Udp);
        add_row("block-ack duplex", r);
        // Both directions must complete, and at least some acks must
        // have ridden reverse DATA.
        ok &= r.reverse_bytes_delivered >= g_count * kPayload && r.piggybacked > 0;
    }
};

struct InprocOutcome {
    bool ok = true;
    workload::Table table{{"protocol", "delivered bytes", "retx", "replay"}};

    template <typename Engine>
    void run(const char* name) {
        const net::NetReport a = run_once<Engine>(net::NetMode::Inproc);
        const net::NetReport b = run_once<Engine>(net::NetMode::Inproc);
        const bool replays = a.completed && b.completed &&
                             a.bytes_delivered == b.bytes_delivered &&
                             a.metrics.data_retx == b.metrics.data_retx &&
                             a.elapsed == b.elapsed;
        table.add_row({name, std::to_string(a.bytes_delivered),
                       std::to_string(a.metrics.data_retx),
                       replays ? "IDENTICAL" : "DIVERGED"});
        ok &= replays && a.payload_mismatches == 0;
    }

    void run_duplex_row() {
        const net::NetReport a = run_duplex(net::NetMode::Inproc);
        const net::NetReport b = run_duplex(net::NetMode::Inproc);
        const bool replays = a.completed && b.completed &&
                             a.bytes_delivered == b.bytes_delivered &&
                             a.reverse_bytes_delivered == b.reverse_bytes_delivered &&
                             a.piggybacked == b.piggybacked &&
                             a.metrics.data_retx == b.metrics.data_retx &&
                             a.elapsed == b.elapsed;
        table.add_row({"block-ack duplex", std::to_string(a.bytes_delivered),
                       std::to_string(a.metrics.data_retx),
                       replays ? "IDENTICAL" : "DIVERGED"});
        ok &= replays && a.payload_mismatches == 0 && a.piggybacked > 0;
    }
};

/// The batched-vs-single A/B: clean channel, block-ack core, identical
/// traffic -- only the batch knob differs.  Returns false if the batched
/// run failed to amortize (dgrams/syscall) or failed to win on goodput.
struct BatchAb {
    bool ok = true;
    double batched_ratio = 0.0;
    double speedup = 0.0;
    workload::Table table{{"path", "goodput", "dgram/sendmmsg", "send syscalls",
                           "datagrams"}};

    net::NetReport run_one(std::size_t batch) {
        net::NetConfig cfg = config();
        cfg.impair = net::ImpairSpec{};  // clean: isolate the syscall cost
        cfg.batch = batch;
        net::BaNetEngine engine(cfg, {}, net::NetMode::Udp);
        return engine.run();
    }

    void run() {
        const net::NetReport batched = run_one(0);  // 0 = window-sized
        const net::NetReport single = run_one(1);
        const net::Metrics bt = batched.transport_totals();
        const net::Metrics st = single.transport_totals();
        batched_ratio = batched.datagrams_per_send_syscall();
        speedup = single.goodput_mbps() > 0 ? batched.goodput_mbps() / single.goodput_mbps()
                                            : 0.0;
        table.add_row({"batched (w=32)",
                       workload::fmt(batched.goodput_mbps(), 1) + " Mbit/s",
                       workload::fmt(batched_ratio, 2), std::to_string(bt.syscalls_sent),
                       std::to_string(bt.datagrams_sent)});
        table.add_row({"single-shot (batch=1)",
                       workload::fmt(single.goodput_mbps(), 1) + " Mbit/s",
                       workload::fmt(st.datagrams_per_send_syscall(), 2),
                       std::to_string(st.syscalls_sent), std::to_string(st.datagrams_sent)});
        ok &= batched.completed && single.completed &&
              batched.payload_mismatches == 0 && single.payload_mismatches == 0;
    }
};

}  // namespace

int main(int argc, char** argv) {
    bool inproc = false;
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--inproc") == 0) inproc = true;
        if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    }
    if (quick) g_count = 80;

    if (inproc) {
        std::printf("E19 (--inproc): deterministic in-process runs, two per protocol\n"
                    "     (%llu x %zu B, %.0f%% loss impairment, seed %llu)\n",
                    static_cast<unsigned long long>(g_count), kPayload, kLoss * 100,
                    static_cast<unsigned long long>(kSeed));
        InprocOutcome outcome;
        outcome.run<net::BaNetEngine>("block-ack");
        outcome.run<net::GbnNetEngine>("go-back-n");
        outcome.run<net::SrNetEngine>("selective-repeat");
        outcome.run_duplex_row();
        outcome.table.print("E19-inproc: same seed => byte-identical replay");
        if (!outcome.ok) {
            std::printf("FAILED: a run diverged or corrupted data\n");
            return 1;
        }
        return 0;
    }

    std::printf("E19: three protocol cores over impaired loopback UDP\n"
                "     (%llu x %zu B = %.1f MB per protocol, %.0f%% loss + dup/reorder,\n"
                "      CRC-32C on every datagram, seed %llu)\n",
                static_cast<unsigned long long>(g_count), kPayload,
                static_cast<double>(g_count * kPayload) / 1e6, kLoss * 100,
                static_cast<unsigned long long>(kSeed));

    Outcome outcome;
    outcome.run<net::BaNetEngine>("block-ack");
    outcome.run<net::GbnNetEngine>("go-back-n");
    outcome.run<net::SrNetEngine>("selective-repeat");
    outcome.run_duplex_row();
    outcome.table.print("E19: goodput over real sockets (wall-clock; varies by machine)");

    std::printf("\n(Impairment jitters every copy onto its own timer, but copies that\n"
                " mature in the same wheel tick re-coalesce at flush() -- dgram/sendmmsg\n"
                " stays well above 1 even impaired.  The clean path isolates the API:)\n");

    BatchAb ab;
    ab.run();
    ab.table.print("E19-batch: clean loopback, block-ack, batched vs single-shot");
    const bool amortized = ab.batched_ratio >= 8.0;
    std::printf("batched path: %.2f datagrams/sendmmsg (target >= 8: %s), "
                "%.2fx goodput vs single-shot\n"
                "(engine goodput here is timer-paced, not syscall-bound -- the raw\n"
                " offered-load speedup is E21's headline)\n",
                ab.batched_ratio, amortized ? "ok" : "MISS", ab.speedup);

    bench::BenchOutput out("e19_net_loopback");
    out.meta("count", bench::Json::num(static_cast<std::uint64_t>(g_count)))
        .meta("payload_bytes", bench::Json::num(static_cast<std::uint64_t>(kPayload)))
        .meta("loss", bench::Json::num(kLoss))
        .meta("seed", bench::Json::num(kSeed))
        .meta("quick", bench::Json::boolean(quick))
        .meta("transport_counters", std::move(outcome.counters))
        .meta("batched_datagrams_per_send_syscall", bench::Json::num(ab.batched_ratio))
        .meta("batched_goodput_speedup", bench::Json::num(ab.speedup))
        .add_table("goodput over impaired loopback UDP", outcome.table)
        .add_table("clean loopback batched vs single-shot", ab.table);
    if (!out.write()) std::printf("warning: could not write BENCH_e19 output files\n");

    std::printf("\nEvery cell above moved the full transfer with zero corrupt payloads;\n"
                "goodput differences are the protocols' retransmission economics.\n"
                "Deterministic variant: bench_e19_net_loopback --inproc\n"
                "Machine-readable copies: BENCH_e19_net_loopback.{json,csv}\n");
    if (!amortized) {
        std::printf("FAILED: batched path under 8 datagrams per sendmmsg\n");
        return 1;
    }
    return outcome.ok && ab.ok ? 0 : 1;
}
