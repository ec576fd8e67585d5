// duplex_rpc: request/response traffic over one full-duplex session.
//
// A client sends requests A->B; the server answers B->A.  Block
// acknowledgments for each direction ride on the other direction's data
// (DATA+ACK piggybacking), so a healthy RPC exchange spends almost no
// standalone ack frames.  The run reports request round-trip (send to
// acknowledgment) percentiles and the frame economy, under loss.
//
//   $ ./duplex_rpc [loss]

#include <cstdio>
#include <cstdlib>

#include "ba/engine_core.hpp"
#include "link/sim_endpoint.hpp"

using namespace bacp;
using namespace bacp::literals;

int main(int argc, char** argv) {
    const double loss = argc > 1 ? std::atof(argv[1]) : 0.05;
    constexpr Seq kRequests = 2000;

    runtime::EngineConfig cfg;
    cfg.w = 16;
    cfg.count = kRequests;  // requests
    cfg.data_link = loss > 0 ? runtime::LinkSpec::lossy(loss) : runtime::LinkSpec::lossless();
    cfg.ack_link = loss > 0 ? runtime::LinkSpec::lossy(loss) : runtime::LinkSpec::lossless();
    cfg.seed = 2026;
    // Hold each block ack up to 2 ms so it covers a burst, then let the
    // next message the other way carry it.
    cfg.ack_policy = runtime::AckPolicy::delayed(2_ms);
    link::SimDuplex<ba::EngineCore<ba::Sender, ba::Receiver>> session(
        cfg, runtime::DuplexSpec{kRequests /* responses */, true});
    const bool completed = session.run();

    std::printf("duplex RPC: %llu requests + %llu responses over %.0f%%-lossy links\n",
                (unsigned long long)kRequests, (unsigned long long)kRequests, loss * 100);
    std::printf("  completed: %s\n", completed ? "yes" : "NO");
    const auto report = [](const char* name, const auto& endpoint) {
        const sim::Metrics& m = endpoint.tx_metrics();
        const Histogram& rtt = endpoint.latency().ack;
        std::printf("  %s: %llu sent, %llu retx, round trip p50 %.2f ms p99 %.2f ms\n", name,
                    (unsigned long long)m.data_new, (unsigned long long)m.data_retx,
                    to_seconds(rtt.quantile(0.5)) * 1e3, to_seconds(rtt.quantile(0.99)) * 1e3);
    };
    report("requests  (A->B)", session.a());
    report("responses (B->A)", session.b());
    const double delivered =
        static_cast<double>(session.a().delivered() + session.b().delivered());
    std::printf("  frame economy: %.3f frames/message (%llu piggybacked acks, "
                "%llu standalone)\n",
                static_cast<double>(session.frames()) / delivered,
                (unsigned long long)session.piggybacked(),
                (unsigned long long)session.standalone_acks());
    return completed ? 0 : 1;
}
