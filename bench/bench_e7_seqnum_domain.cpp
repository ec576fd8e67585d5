// E7 -- sequence-number economy: the time-constrained alternative pays
// for small domains; block acknowledgment does not.
//
// Claim reproduced: in the Stenning / Shankar-Lam approach "a specified
// time period should elapse between the sending of two data messages with
// the same sequence number ... [which] may adversely affect the rate of
// data transfer in the event that a small domain of sequence numbers is
// used".  The reuse interval is a worst-case message-lifetime bound
// (think IP's MSL: minutes, vs millisecond RTTs), so the send rate is
// capped at N / reuse_interval.  Block acknowledgment runs at full
// windowed speed with the minimal domain n = 2w, resorting to timing only
// after an actual loss.
//
// Series: throughput vs sequence-number domain N, fixed w = 8, 5 ms
// links, reuse interval 100 ms; block-ack shown at its fixed n = 2w = 16.

#include <cstdio>

#include "runtime/sessions.hpp"
#include "workload/report.hpp"

using namespace bacp;
using namespace bacp::literals;

namespace {

double tc_throughput(Seq domain) {
    runtime::EngineConfig cfg;
    cfg.w = 8;
    cfg.count = 1500;
    cfg.data_link = runtime::LinkSpec::lossless(5_ms, 5_ms);
    cfg.ack_link = runtime::LinkSpec::lossless(5_ms, 5_ms);
    runtime::TcSession session(cfg, {.domain = domain, .reuse_interval = 100_ms});
    const auto metrics = session.run();
    return session.completed() ? metrics.throughput_msgs_per_sec() : -1;
}

double ba_throughput() {
    runtime::EngineConfig cfg;
    cfg.w = 8;
    cfg.count = 1500;
    cfg.data_link = runtime::LinkSpec::lossless(5_ms, 5_ms);
    cfg.ack_link = runtime::LinkSpec::lossless(5_ms, 5_ms);
    runtime::BoundedSession session(cfg);
    const auto metrics = session.run();
    return session.completed() ? metrics.throughput_msgs_per_sec() : -1;
}

}  // namespace

int main() {
    std::printf("E7: throughput vs sequence-number domain (w=8, 5 ms links,\n"
                "    reuse interval = 100 ms worst-case lifetime bound)\n");
    workload::Table table({"protocol", "domain N", "rate cap N/T", "throughput msg/s"});
    for (const Seq domain : {9u, 12u, 16u, 24u, 32u, 64u, 128u}) {
        const double cap = static_cast<double>(domain) / 0.1;
        table.add_row({"time-constrained", std::to_string(domain), workload::fmt(cap, 0),
                       workload::fmt(tc_throughput(domain), 1)});
    }
    table.add_row({"block-ack (SV)", "16 (= 2w)", "none", workload::fmt(ba_throughput(), 1)});
    table.print("E7: sequence-number domain vs throughput");
    std::printf("\nExpected shape: time-constrained throughput tracks the N/T cap until\n"
                "the window rate takes over; block-ack achieves the full window rate at\n"
                "the minimal domain 2w with no real-time constraint on sending.\n");
    return 0;
}
