// E5 -- recovery speed: SII simple timeout vs SIV per-message timeout.
//
// Claim reproduced (SIV): "if one acknowledgment message (m, n) is lost,
// process S has to timeout and resend each of the messages from m to n,
// one at a time, with each two successive messages separated by a full
// timeout period" under the simple timeout; with timeout(i), "successive
// resendings of different messages do not have to be separated by any
// specific time period".
//
// Workload: drop the single block ack covering the first k messages of a
// 2k transfer and measure total completion time.  Expected shape: the
// simple-timeout curve grows ~linearly in k with slope ~= one timeout
// period; the per-message curve stays nearly flat (RTT-paced).

#include <cstdio>

#include "runtime/sessions.hpp"
#include "workload/report.hpp"

using namespace bacp;
using namespace bacp::literals;
using runtime::EngineConfig;
using runtime::TimeoutMode;

namespace {

SimTime run_once(Seq k, TimeoutMode mode) {
    EngineConfig cfg;
    cfg.w = k;
    cfg.count = 2 * k;
    cfg.timeout_mode = mode;
    cfg.timeout = 50_ms;  // T0 >> RTT (4 ms fixed links)
    cfg.data_link = runtime::LinkSpec::lossless(2_ms, 2_ms);
    cfg.ack_link = runtime::LinkSpec::lossless(2_ms, 2_ms);
    cfg.ack_link.loss_kind = runtime::LinkSpec::Loss::Scripted;
    cfg.ack_link.scripted_drops = {0};  // exactly the first (big) block ack
    cfg.ack_policy = runtime::AckPolicy::batch(k, 1_ms);
    cfg.seed = 5;
    runtime::UnboundedSession session(cfg);
    const auto metrics = session.run();
    if (!session.completed()) return -1;
    return metrics.elapsed();
}

}  // namespace

int main() {
    std::printf("E5: recovery after a lost block ack covering k messages\n");
    std::printf("    (fixed 2 ms links, timeout T0 = 50 ms, transfer = 2k messages)\n");
    workload::Table table({"k (block size)", "SII simple timeout", "SIV per-message",
                           "speedup"});
    for (const Seq k : {1u, 2u, 4u, 8u, 16u, 32u}) {
        const SimTime simple = run_once(k, TimeoutMode::SimpleTimer);
        const SimTime fast = run_once(k, TimeoutMode::PerMessageTimer);
        table.add_row({std::to_string(k),
                       workload::fmt(to_seconds(simple) * 1e3, 1) + " ms",
                       workload::fmt(to_seconds(fast) * 1e3, 1) + " ms",
                       workload::fmt(static_cast<double>(simple) / static_cast<double>(fast),
                                     1) +
                           "x"});
    }
    table.print("E5: completion time vs lost-block size");
    std::printf("\nExpected shape: SII grows ~linearly (about one 50 ms timeout per\n"
                "message of the lost block); SIV stays near-flat after the first\n"
                "timeout, so the speedup grows with k.\n");
    return 0;
}
