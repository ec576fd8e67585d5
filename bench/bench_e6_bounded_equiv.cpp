// E6 -- the Section V construction: bounded sequence numbers are
// semantically invisible.
//
// Claims reproduced:
//   * equations (13)/(14): f(x, y mod n) reconstructs y exactly whenever
//     x <= y < x + n, checked exhaustively for many (w, x) ranges;
//   * the fully bounded protocol (counters mod 2w, w-slot arrays)
//     produces byte-for-byte the same execution as the unbounded protocol
//     under identical channels and seeds -- same deliveries, same
//     transmissions, same acks, same completion time;
//   * n = 2w is tight: n = 2w - 1 breaks reconstruction (shown on the
//     algebra, not by running an incorrect protocol).

#include <cstdio>

#include "protocol/seqnum.hpp"
#include "runtime/sessions.hpp"
#include "workload/report.hpp"

using namespace bacp;
using runtime::EngineConfig;

namespace {

EngineConfig config_for(Seq w, double loss, std::uint64_t seed) {
    EngineConfig cfg;
    cfg.w = w;
    cfg.count = 2000;
    cfg.data_link = loss > 0 ? runtime::LinkSpec::lossy(loss) : runtime::LinkSpec::lossless();
    cfg.ack_link = loss > 0 ? runtime::LinkSpec::lossy(loss) : runtime::LinkSpec::lossless();
    cfg.seed = seed;
    return cfg;
}

}  // namespace

int main() {
    std::printf("E6: bounded (mod 2w) vs unbounded protocol equivalence\n");

    // Part 1: the reconstruction lemma, exhaustively.
    std::uint64_t checks = 0;
    bool lemma_holds = true;
    for (Seq w = 1; w <= 64; w *= 2) {
        const Seq n = proto::domain_for_window(w);
        for (Seq x = 0; x < 4 * n; ++x) {
            for (Seq y = x; y < x + n; ++y) {
                if (proto::reconstruct(x, proto::to_wire(y, n), n) != y) lemma_holds = false;
                ++checks;
            }
        }
    }
    // Tightness: with n = 2w - 1 the window [x, x + 2w) no longer fits.
    bool tight = false;
    {
        const Seq w = 4, n = 2 * w - 1;
        for (Seq x = 0; x < 4 * n && !tight; ++x) {
            for (Seq y = x; y < x + 2 * w; ++y) {
                if (proto::reconstruct(x, proto::to_wire(y, n), n) != y) {
                    tight = true;
                    break;
                }
            }
        }
    }
    std::printf("  reconstruction lemma f(x, y mod 2w) == y: %s (%llu cases)\n",
                lemma_holds ? "HOLDS" : "FAILS", (unsigned long long)checks);
    std::printf("  n = 2w - 1 insufficient for a 2w window: %s\n\n",
                tight ? "confirmed" : "NOT confirmed");

    // Part 2: lockstep execution equivalence.
    workload::Table table({"w", "loss", "seed", "deliveries", "tx(new+retx)", "acks",
                           "end time equal", "verdict"});
    bool all_equal = true;
    for (const Seq w : {2u, 4u, 8u, 16u, 32u}) {
        for (const double loss : {0.0, 0.1, 0.25}) {
            const std::uint64_t seed = 1000 + w * 10 + static_cast<std::uint64_t>(loss * 100);
            runtime::UnboundedSession unbounded(config_for(w, loss, seed));
            const auto u = unbounded.run();
            runtime::BoundedSession bounded(config_for(w, loss, seed));
            const auto b = bounded.run();
            const bool equal = unbounded.completed() && bounded.completed() &&
                               u.delivered == b.delivered && u.data_new == b.data_new &&
                               u.data_retx == b.data_retx && u.acks_sent == b.acks_sent &&
                               u.end_time == b.end_time;
            all_equal = all_equal && equal;
            table.add_row({std::to_string(w), workload::fmt(loss * 100, 0) + "%",
                           std::to_string(seed), std::to_string(b.delivered),
                           std::to_string(b.data_new) + "+" + std::to_string(b.data_retx),
                           std::to_string(b.acks_sent),
                           u.end_time == b.end_time ? "yes" : "NO",
                           equal ? "identical" : "DIVERGED"});
        }
    }
    table.print("E6: execution equivalence (identical channels and seeds)");
    std::printf("\nVerdict: %s\n", all_equal && lemma_holds && tight
                                       ? "Section V construction verified"
                                       : "MISMATCH -- investigate");
    return all_equal && lemma_holds ? 0 : 1;
}
