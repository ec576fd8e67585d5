// E15 (architecture ablation) -- head-of-line blocking and stream
// multiplexing.
//
// Four application flows share one lossy path.  Two designs:
//   * single sequenced stream: flows interleave over ONE protocol
//     instance; any loss stalls EVERY flow behind the in-order gap until
//     recovery (head-of-line blocking);
//   * stream mux: one protocol instance per flow over the same channels
//     (wire stream ids); a loss stalls only its own flow.
//
// Messages are paced below capacity so queueing does not mask the effect.
// Series: p50 / p99 / p999 app-level delivery latency vs loss rate.
// Exits nonzero when any run fails to deliver every message.

#include <cstdio>
#include <map>

#include "common/histogram.hpp"
#include "link/stream_mux.hpp"
#include "sim/simulator.hpp"
#include "workload/report.hpp"

using namespace bacp;
using namespace bacp::literals;
using link::StreamMux;

namespace {

constexpr Seq kFlows = 4;
constexpr Seq kPerFlow = 1500;
constexpr SimTime kSendGap = kMillisecond;  // per flow: 1000 msg/s

struct Outcome {
    Histogram latency{5};
    bool ok = false;
};

Outcome run_design(bool multiplexed, double loss) {
    sim::Simulator sim;
    StreamMux::Config cfg;
    cfg.streams = multiplexed ? kFlows : 1;
    // Capacity parity: the shared stream carries all four flows, so it
    // gets the aggregate window.
    cfg.w = multiplexed ? 32 : 32 * kFlows;
    cfg.loss = loss;
    cfg.seed = 23;
    StreamMux mux(sim, cfg);

    Outcome out;
    std::map<std::pair<Seq, Seq>, SimTime> sent_at;
    Seq delivered = 0;
    mux.set_on_deliver([&](Seq, std::span<const std::uint8_t> p) {
        // Payload encodes (flow, index).
        const Seq flow = p[0];
        const Seq index = static_cast<Seq>(p[1]) | (static_cast<Seq>(p[2]) << 8);
        out.latency.add(sim.now() - sent_at.at({flow, index}));
        ++delivered;
    });

    // Paced application senders.
    for (Seq flow = 0; flow < kFlows; ++flow) {
        for (Seq i = 0; i < kPerFlow; ++i) {
            sim.schedule_at(static_cast<SimTime>(i) * kSendGap +
                                static_cast<SimTime>(flow) * (kSendGap / kFlows),
                            [&mux, &sent_at, &sim, flow, i, multiplexed] {
                                sent_at[{flow, i}] = sim.now();
                                mux.send(multiplexed ? flow : 0,
                                         {static_cast<std::uint8_t>(flow),
                                          static_cast<std::uint8_t>(i & 0xff),
                                          static_cast<std::uint8_t>((i >> 8) & 0xff)});
                            });
        }
    }
    sim.run();
    out.ok = delivered == kFlows * kPerFlow && mux.idle();
    return out;
}

}  // namespace

int main() {
    std::printf("E15: head-of-line blocking -- %llu flows on one path (aggregate\n"
                "    window 128, paced at 1000 msg/s per flow, 4-6 ms links)\n",
                (unsigned long long)kFlows);
    workload::Table table({"loss", "design", "p50 ms", "p99 ms", "p99.9 ms", "max ms"});
    bool all_complete = true;
    for (const double loss : {0.01, 0.05, 0.10}) {
        for (const bool multiplexed : {false, true}) {
            const auto out = run_design(multiplexed, loss);
            all_complete = all_complete && out.ok;
            table.add_row({workload::fmt(loss * 100, 0) + "%",
                           multiplexed ? "4 muxed streams" : "1 shared stream",
                           out.ok ? workload::fmt(to_seconds(out.latency.quantile(0.5)) * 1e3, 2)
                                  : std::string("INCOMPLETE"),
                           workload::fmt(to_seconds(out.latency.quantile(0.99)) * 1e3, 2),
                           workload::fmt(to_seconds(out.latency.quantile(0.999)) * 1e3, 2),
                           workload::fmt(to_seconds(out.latency.max()) * 1e3, 2)});
        }
    }
    table.print("E15: app-level delivery latency");
    std::printf(
        "\nExpected shape: at low loss the medians are close and the shared\n"
        "stream's TAIL is several times heavier (every loss stalls all four\n"
        "flows for a recovery round).  At higher loss the stalls compound: the\n"
        "shared stream's effective throughput drops below the offered rate and\n"
        "backlog snowballs, while the muxed streams -- whose losses are\n"
        "repaired independently -- keep draining.  This is the QUIC-streams\n"
        "argument reproduced on the paper's protocol.\n");
    return all_complete ? 0 : 1;
}
