// multihop: reliability architectures over a chain of lossy links.
//
// Builds a 4-hop path twice from the library's composable endpoints --
// end-to-end reliability over dumb relays, and hop-by-hop reliable links
// with store-and-forward nodes -- and races them.  Then demonstrates
// stream multiplexing over a single shared path.
//
//   $ ./multihop [hops] [per_hop_loss]
//
// Exits nonzero when any transfer is incomplete.

#include <cstdio>
#include <cstdlib>
#include <map>

#include "link/multihop.hpp"
#include "link/stream_mux.hpp"
#include "sim/simulator.hpp"

using namespace bacp;
using namespace bacp::literals;

namespace {

link::PathConfig make_chain(std::size_t hops, double loss) {
    link::PathConfig cfg;
    cfg.w = 16;
    cfg.seed = 99;
    for (std::size_t i = 0; i < hops; ++i) {
        link::HopSpec hop;
        hop.loss = loss;
        hop.corrupt_p = 0.01;
        cfg.hops.push_back(hop);
    }
    return cfg;
}

template <typename Path>
bool race(const char* name, std::size_t hops, double loss) {
    sim::Simulator sim;
    Path path(sim, make_chain(hops, loss));
    Seq delivered = 0;
    path.set_on_deliver([&](std::span<const std::uint8_t>) { ++delivered; });
    for (Seq i = 0; i < 500; ++i) path.send({static_cast<std::uint8_t>(i)});
    sim.run();
    std::printf("  %-12s delivered %llu/500 in %6.2f s   frames/msg %5.2f   retx %llu\n",
                name, (unsigned long long)delivered, to_seconds(sim.now()),
                static_cast<double>(path.total_frames()) / 500.0,
                (unsigned long long)path.total_retransmissions());
    return delivered == 500 && path.idle();
}

}  // namespace

int main(int argc, char** argv) {
    const std::size_t hops = argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 4;
    const double loss = argc > 2 ? std::atof(argv[2]) : 0.05;

    std::printf("== %zu-hop chain, %.0f%% loss + 1%% corruption per hop ==\n", hops,
                loss * 100);
    bool complete = race<link::EndToEndPath>("end-to-end", hops, loss);
    complete = race<link::HopByHopPath>("hop-by-hop", hops, loss) && complete;

    std::printf("\n== 3 streams multiplexed over one lossy path ==\n");
    sim::Simulator sim;
    link::StreamMux::Config cfg;
    cfg.streams = 3;
    cfg.w = 8;
    cfg.loss = loss;
    cfg.seed = 100;
    link::StreamMux mux(sim, cfg);
    std::map<Seq, Seq> per_stream;
    mux.set_on_deliver([&](Seq stream, std::span<const std::uint8_t>) { ++per_stream[stream]; });
    for (Seq i = 0; i < 200; ++i) {
        for (Seq stream = 0; stream < 3; ++stream) {
            mux.send(stream, {static_cast<std::uint8_t>(stream), static_cast<std::uint8_t>(i)});
        }
    }
    sim.run();
    for (Seq stream = 0; stream < 3; ++stream) {
        std::printf("  stream %llu delivered %llu/200 in order\n", (unsigned long long)stream,
                    (unsigned long long)per_stream[stream]);
        complete = complete && per_stream[stream] == 200;
    }
    std::printf("  shared channels carried %llu data + %llu ack frames, %llu retx\n",
                (unsigned long long)mux.data_stats().sent,
                (unsigned long long)mux.ack_stats().sent,
                (unsigned long long)mux.retransmissions());
    return complete && mux.idle() ? 0 : 1;
}
