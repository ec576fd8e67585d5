// E11 (extension ablation) -- NAK fast retransmit.
//
// The receiver can tell the sender exactly which message blocks delivery
// (the "(i < nr || !rcvd[i])" conjunct of timeout(i), receiver-supplied).
// A sender that honors NAKs recovers a lost message in ~1 extra round
// trip instead of a conservative timeout, cutting tail latency; the cost
// is a little NAK traffic and occasional spurious retransmissions when
// reorder mimics loss.
//
// Series: p50/p99 delivery latency and throughput vs loss rate, NAK on
// vs off, w = 16.

#include <cstdio>

#include "workload/report.hpp"
#include "workload/scenario.hpp"

using namespace bacp;
using workload::Protocol;
using workload::Scenario;

namespace {

struct Row {
    double thr = 0, p50 = 0, p99 = 0, naks = 0, fast = 0;
};

Row run_one(double loss, bool nak) {
    Scenario s;
    s.protocol = Protocol::BlockAck;
    s.w = 16;
    s.count = 3000;
    s.loss = loss;
    s.enable_nak = nak;
    s.seed = 13;
    const auto r = workload::run_scenario(s);
    Row row;
    row.thr = r.metrics.throughput_msgs_per_sec();
    row.p50 = to_seconds(r.latency.delivery.quantile(0.5)) * 1e3;
    row.p99 = to_seconds(r.latency.delivery.quantile(0.99)) * 1e3;
    row.naks = static_cast<double>(r.metrics.naks_sent);
    row.fast = static_cast<double>(r.metrics.fast_retx);
    return row;
}

}  // namespace

int main() {
    std::printf("E11: NAK fast retransmit (w=16, 3000 msgs, 4-6 ms reordering links)\n");
    workload::Table table({"loss", "p99 lat (off)", "p99 lat (NAK)", "p99 gain",
                           "thr (off)", "thr (NAK)", "naks", "fast retx"});
    for (const double loss : {0.01, 0.02, 0.05, 0.10, 0.20}) {
        const Row off = run_one(loss, false);
        const Row on = run_one(loss, true);
        table.add_row({workload::fmt(loss * 100, 0) + "%", workload::fmt(off.p99, 1) + " ms",
                       workload::fmt(on.p99, 1) + " ms",
                       workload::fmt(off.p99 / on.p99, 2) + "x", workload::fmt(off.thr, 1),
                       workload::fmt(on.thr, 1), workload::fmt(on.naks, 0),
                       workload::fmt(on.fast, 0)});
    }
    table.print("E11: tail latency with and without NAKs");
    std::printf("\nExpected shape: p99 latency drops by roughly the ratio of the\n"
                "conservative timeout to one round trip; throughput improves modestly\n"
                "(retransmissions start sooner, so the window unblocks sooner).\n");
    return 0;
}
