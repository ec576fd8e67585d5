// E4 -- acknowledgment overhead: one block ack vs one ack per message.
//
// Claim reproduced: selective repeat "requires that every data message be
// acknowledged by a distinct acknowledgment message ... a severe
// restriction ... [that] can greatly reduce the protocol's performance";
// block acknowledgment covers arbitrarily many messages per ack, and
// batching policies trade a little latency for large ack-traffic savings.
//
// Series: acks per delivered message and mean block size, per ack policy,
// under loss-free and lossy conditions.

#include <cstdio>

#include "workload/report.hpp"
#include "workload/scenario.hpp"

using namespace bacp;
using namespace bacp::literals;
using workload::Protocol;
using workload::Scenario;

namespace {

void run_block(workload::Table& table, const std::string& label, runtime::AckPolicy policy,
               double loss) {
    Scenario s;
    s.protocol = Protocol::BlockAck;
    s.w = 32;
    s.count = 4000;
    s.loss = loss;
    s.ack_policy = policy;
    s.seed = 11;
    const auto r = workload::run_scenario(s);
    const double block = r.metrics.acks_sent > 0
                             ? static_cast<double>(r.metrics.delivered) /
                                   static_cast<double>(r.metrics.acks_sent)
                             : 0.0;
    table.add_row({label, workload::fmt(loss * 100, 0) + "%",
                   workload::fmt(r.metrics.acks_per_delivered(), 3), workload::fmt(block, 1),
                   workload::fmt(r.metrics.throughput_msgs_per_sec(), 1),
                   workload::fmt(to_seconds(r.latency.delivery.quantile(0.5)) * 1e3, 1)});
}

void run_sr(workload::Table& table, double loss) {
    Scenario s;
    s.protocol = Protocol::SelectiveRepeat;
    s.w = 32;
    s.count = 4000;
    s.loss = loss;
    s.seed = 11;
    const auto r = workload::run_scenario(s);
    table.add_row({"selective repeat (forced ack/msg)", workload::fmt(loss * 100, 0) + "%",
                   workload::fmt(r.metrics.acks_per_delivered(), 3), "1.0",
                   workload::fmt(r.metrics.throughput_msgs_per_sec(), 1),
                   workload::fmt(to_seconds(r.latency.delivery.quantile(0.5)) * 1e3, 1)});
}

}  // namespace

int main() {
    std::printf("E4: acknowledgment overhead (w=32, 4000 msgs, 4-6 ms reordering links)\n");
    workload::Table table({"policy", "loss", "acks/msg", "msgs/block", "thr msg/s",
                           "p50 lat ms"});
    for (const double loss : {0.0, 0.05}) {
        run_sr(table, loss);
        run_block(table, "block ack, eager", runtime::AckPolicy::eager(), loss);
        run_block(table, "block ack, batch 4 (5 ms flush)", runtime::AckPolicy::batch(4, 5_ms),
                  loss);
        run_block(table, "block ack, batch 16 (10 ms flush)",
                  runtime::AckPolicy::batch(16, 10_ms), loss);
        run_block(table, "block ack, delayed 8 ms", runtime::AckPolicy::delayed(8_ms), loss);
    }
    table.print("E4: ack traffic per delivered message");
    std::printf("\nExpected shape: selective repeat pins acks/msg at >= 1.0; block ack\n"
                "amortizes many messages per ack, more with batching, at similar\n"
                "throughput and a bounded latency cost.\n");
    return 0;
}
