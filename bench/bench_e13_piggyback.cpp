// E13 (extension ablation) -- acknowledgment economy in duplex operation.
//
// How many wire frames does reliable delivery cost per message when
// traffic flows both ways?  Four designs, identical channels:
//
//   sel-repeat pair   two independent selective-repeat sessions: every
//                     data message buys a distinct ack frame (~2.0)
//   block-ack pair    two independent block-ack sessions, eager acks
//   duplex, no ride   one duplex block-ack session; acks are *held* up to
//                     2 ms (AckPolicy::delayed: batched into bigger
//                     blocks) but always spend their own frame
//   duplex + ride     same held acks with piggybacking on: a held block
//                     is deferred up to 2 ms more and rides the next
//                     reverse DATA
//
// Both duplex rows run link::SimDuplex -- the shared DuplexDriver over
// wire-codec byte channels, the same driver the net runtime uses.
//
// Finding (and the paper's SVI point in action): block acknowledgment
// itself captures most of the piggyback dividend -- one held (m, n) pair
// acknowledges a whole run, so the classic piggyback optimization only
// trims the few remaining standalone frames.
//
// Exits nonzero when any row fails to complete.

#include <cstdio>

#include "ba/engine_core.hpp"
#include "link/sim_endpoint.hpp"
#include "workload/report.hpp"
#include "workload/scenario.hpp"

using namespace bacp;
using namespace bacp::literals;

namespace {

struct Row {
    double frames_per_msg = 0;
    double ridden_share = 0;
    bool completed = false;
};

Row unidirectional_pair_frames_per_msg(workload::Protocol protocol, Seq count) {
    // Two mirrored one-way sessions = total frames / total delivered.
    workload::Scenario s;
    s.protocol = protocol;
    s.w = 16;
    s.count = count;
    s.loss = 0.02;
    s.seed = 17;
    const auto r = workload::run_scenario(s);
    Row row;
    row.completed = r.completed;
    const double frames = static_cast<double>(r.metrics.data_new + r.metrics.data_retx +
                                              r.metrics.acks_sent + r.metrics.dup_acks);
    row.frames_per_msg = 2 * frames / (2 * static_cast<double>(r.metrics.delivered));
    return row;
}

Row duplex_frames_per_msg(Seq count, bool piggyback, runtime::AckPolicy ack_policy) {
    runtime::EngineConfig cfg;
    cfg.w = 16;
    cfg.count = count;
    cfg.ack_policy = ack_policy;
    cfg.data_link = runtime::LinkSpec::lossy(0.02);
    cfg.ack_link = runtime::LinkSpec::lossy(0.02);
    cfg.seed = 17;
    link::SimDuplex<ba::EngineCore<ba::Sender, ba::Receiver>> session(
        cfg, runtime::DuplexSpec{count, piggyback, 2_ms});
    Row row;
    row.completed = session.run();
    const double delivered = static_cast<double>(session.a().delivered() + session.b().delivered());
    row.frames_per_msg = delivered > 0 ? static_cast<double>(session.frames()) / delivered : 0;
    const double acks = static_cast<double>(session.piggybacked() + session.standalone_acks());
    row.ridden_share = acks > 0 ? static_cast<double>(session.piggybacked()) / acks : 0;
    return row;
}

}  // namespace

int main() {
    std::printf("E13: frames per delivered message, symmetric bulk traffic\n");
    std::printf("    (w=16, 2%% loss each way, 4-6 ms reordering links, 4000+4000 msgs)\n");
    const Seq count = 4000;
    workload::Table table({"design", "frames/msg", "acks ridden"});
    bool all_complete = true;
    const auto add = [&](const char* design, const Row& row, const std::string& ridden) {
        all_complete = all_complete && row.completed;
        table.add_row({design, row.completed ? workload::fmt(row.frames_per_msg, 3) : "INCOMPLETE",
                       ridden});
    };
    add("selective-repeat pair (ack per message)",
        unidirectional_pair_frames_per_msg(workload::Protocol::SelectiveRepeat, count), "-");
    add("block-ack pair (eager acks)",
        unidirectional_pair_frames_per_msg(workload::Protocol::BlockAck, count), "-");
    add("duplex block-ack, held acks (no ride)",
        duplex_frames_per_msg(count, false, runtime::AckPolicy::delayed(2_ms)), "0%");
    const Row ride = duplex_frames_per_msg(count, true, runtime::AckPolicy::delayed(2_ms));
    add("duplex block-ack + piggyback", ride, workload::fmt(ride.ridden_share * 100, 1) + "%");
    table.print("E13: acknowledgment economy");
    std::printf("\nExpected shape: ~2.0 for the per-message-ack pair; block\n"
                "acknowledgment alone cuts most of that; held (batched) blocks\n"
                "approach the pure-data floor of 1.0x(1+loss overhead); riding the\n"
                "remaining acks on reverse data trims the last few percent.\n");
    return all_complete ? 0 : 1;
}
