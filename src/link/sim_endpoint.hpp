#pragma once

/// \file sim_endpoint.hpp
/// The discrete-event environment for runtime::DuplexDriver over byte
/// channels.
///
/// SimEndpoint<Core> is one endpoint of a session in the DES: a
/// DuplexDriver (a sending half and a receiving half sharing this
/// environment) with the simulator as its TimerService, sending
/// wire-codec frames onto an externally owned outbound ByteChannel and
/// taking inbound frames through on_frame().  Because every frame
/// crosses the CRC-32C codec, a ByteChannel's bit flips become losses --
/// the only failure the protocol's proof has to handle.  The frame path
/// (encoding, wrapped-ack split, payload stash, delivery hand-off) is
/// net::FramePath, the same code net::NetEndpoint runs; only the event
/// loop differs, so every protocol decision is the one
/// tests/test_driver_parity.cpp pins across runtimes.
///
/// The DES can prove quiescence (an empty event queue means empty
/// channels), so the environment advertises kHasOracle and fires the
/// oracle timeout modes from a simulator idle hook, as runtime::Engine
/// does.  Endpoints may share one simulator: link topologies (ReliableLink,
/// StreamMux, the multi-hop paths) wire several onto one event queue.
///
/// SimDuplex<Core> is the two-endpoint session on its own simulator --
/// the DES counterpart of net::NetEngine, and the home of the duplex
/// experiments (E13, examples/duplex_rpc).

#include <cstdint>
#include <utility>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/timer_service.hpp"
#include "common/types.hpp"
#include "link/byte_channel.hpp"
#include "net/frame_path.hpp"
#include "protocol/message.hpp"
#include "runtime/duplex_driver.hpp"
#include "runtime/endpoint_core.hpp"
#include "runtime/endpoint_driver.hpp"
#include "runtime/session_util.hpp"
#include "runtime/timeout_mode.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "wire/frame.hpp"

namespace bacp::link {

/// Pattern payload bytes per message when no payload source is bound
/// (enough for the receiver to verify order and content).
inline constexpr std::size_t kSimPatternBytes = 16;

template <runtime::EndpointCore Core>
class SimEndpoint {
public:
    using Options = typename Core::Options;
    using PayloadSource = typename net::FramePath<Core>::PayloadSource;
    using DeliverSink = typename net::FramePath<Core>::DeliverSink;

    /// \p cfg.count is the message count this endpoint originates,
    /// \p spec.rx_count the count it sinks (either may be zero, or
    /// runtime::kUnboundedCount for an open-ended link).  \p out and
    /// \p sim must outlive the endpoint; every frame is tagged with
    /// \p stream.
    SimEndpoint(sim::Simulator& sim, ByteChannel& out, const runtime::EngineConfig& cfg,
                runtime::DuplexSpec spec, Options options = {}, Seq stream = wire::kNoStream)
        : sim_(sim),
          out_(out),
          count_(cfg.count),
          frames_(cfg, spec.rx_count, kSimPatternBytes, stream, wire::Conn{}),
          duplex_(cfg, spec, std::move(options), *this) {
        const runtime::TimeoutMode mode = cfg.timeout_mode.value_or(Core::kDefaultTimeoutMode);
        if (mode == runtime::TimeoutMode::OracleSimple ||
            mode == runtime::TimeoutMode::OraclePerMessage) {
            sim_.add_idle_hook([this] {
                if (!duplex_.tx_core().has_outstanding()) return false;
                // The proof the oracle modes rely on: an idle DES has
                // nothing scheduled, so nothing is in flight.
                BACP_ASSERT(out_.in_flight() == 0);
                return duplex_.oracle_fire();
            });
        }
    }

    SimEndpoint(const SimEndpoint&) = delete;
    SimEndpoint& operator=(const SimEndpoint&) = delete;

    /// Opens the faucet of the sending half (a pure receiver has none).
    void start() {
        if (count_ > 0) duplex_.start();
    }

    /// Application-gated arrivals (EngineConfig::app_arrivals): \p n
    /// more payloads are queued with the payload source.
    void release(Seq n) { duplex_.release(n); }

    /// Feeds one frame arriving from the peer (any type).
    void on_frame(const ByteChannel::Frame& frame) { frames_.receive(duplex_, frame); }

    bool done() const { return duplex_.done(); }
    Seq delivered() const { return duplex_.delivered(); }
    Seq sent_new() const { return duplex_.sent_new(); }
    std::uint64_t payload_mismatches() const { return frames_.payload_mismatches(); }
    std::uint64_t piggybacked() const { return duplex_.piggybacked(); }
    std::uint64_t standalone_acks() const { return duplex_.standalone_acks(); }
    SimTime timeout_value() const { return duplex_.timeout_value(); }
    const Core& tx_core() const { return duplex_.tx_core(); }
    /// The sending half's counters (data_new, data_retx, decode errors)
    /// and the receiving half's (deliveries, acks, NAKs).
    const sim::Metrics& tx_metrics() const { return duplex_.tx_metrics(); }
    const sim::Metrics& rx_metrics() const { return duplex_.rx_metrics(); }
    /// This endpoint's latency sink: the ack latency of the messages it
    /// originated, in simulated time.
    const sim::LatencyHistograms& latency() const { return latency_; }

    void set_decision_log(runtime::DecisionLog* log) { duplex_.set_decision_log(log); }
    void set_payload_source(PayloadSource source) { frames_.set_payload_source(std::move(source)); }
    void set_deliver_sink(DeliverSink sink) { frames_.set_deliver_sink(std::move(sink)); }

    // ---- Environment hooks (called by DuplexDriver) ------------------------
    // Public because the driver is a distinct type; not user API.

    static constexpr bool kHasOracle = true;

    TimerService& timer_service() { return sim_; }
    SimTime now() const { return sim_.now(); }

    void send_data(const proto::Data& msg, Seq true_seq, bool /*retx*/) {
        frames_.data(emit(), msg, true_seq);
    }
    void send_data_ack(const proto::Data& msg, Seq true_seq, bool /*retx*/,
                       const proto::Ack& ack, runtime::AckKind) {
        frames_.data_ack(emit(), msg, true_seq, ack);
    }
    void send_ack(const proto::Ack& ack, runtime::AckKind) {
        frames_.ack(emit(), duplex_.rx_core(), ack);
    }
    void send_nak(const proto::Nak& nak) { frames_.nak(emit(), nak); }
    void on_delivery(Seq true_seq) { frames_.deliver(duplex_.rx_core(), true_seq); }
    void after_step() {}
    sim::LatencyHistograms& latency() { return latency_; }

private:
    /// The FramePath emitter: one fresh frame per send onto the channel.
    auto emit() {
        return [this](auto&& encode) {
            ByteChannel::Frame frame;
            encode(frame);
            out_.send(std::move(frame));
        };
    }

    sim::Simulator& sim_;
    ByteChannel& out_;
    Seq count_;
    sim::LatencyHistograms latency_;
    net::FramePath<Core> frames_;
    runtime::DuplexDriver<Core, SimEndpoint> duplex_;  // last: uses members above
};

/// A full-duplex session in the DES: endpoint A sends \p cfg.count
/// messages to B over cfg.data_link while B sends \p spec.rx_count back
/// over cfg.ack_link, each endpoint's acks riding the channel of its own
/// data.  Both endpoints run \p spec (piggybacking is a property of the
/// session, like w).  Payloads are the verifiable pattern.
template <runtime::EndpointCore Core>
class SimDuplex {
    static_assert(!Core::kRequiresFifo, "byte channels may reorder");

public:
    using Options = typename Core::Options;

    SimDuplex(const runtime::EngineConfig& cfg, runtime::DuplexSpec spec, Options options = {})
        : deadline_(cfg.deadline),
          max_events_(cfg.max_events),
          rng_ab_(runtime::mix_seed(cfg.seed, 0xab)),
          rng_ba_(runtime::mix_seed(cfg.seed, 0xba)),
          ab_(sim_, rng_ab_, ByteChannel::config_for(cfg.data_link), "C_AB"),
          ba_(sim_, rng_ba_, ByteChannel::config_for(cfg.ack_link), "C_BA"),
          a_(sim_, ab_, cfg, spec, options),
          b_(sim_, ba_, reversed(cfg, spec), runtime::DuplexSpec{cfg.count, spec.piggyback,
                                                                   spec.piggyback_delay},
             options) {
        ab_.set_receiver([this](const ByteChannel::Frame& f) { b_.on_frame(f); });
        ba_.set_receiver([this](const ByteChannel::Frame& f) { a_.on_frame(f); });
    }

    SimDuplex(const SimDuplex&) = delete;
    SimDuplex& operator=(const SimDuplex&) = delete;

    /// Runs both transfers to completion (or the deadline / event cap of
    /// the config); returns completed().
    bool run() {
        a_.start();
        b_.start();
        sim_.run_until(deadline_, max_events_);
        return completed();
    }

    /// Both directions delivered in order, acknowledged, and verified.
    bool completed() const {
        return a_.done() && b_.done() && a_.payload_mismatches() + b_.payload_mismatches() == 0;
    }

    SimEndpoint<Core>& a() { return a_; }
    SimEndpoint<Core>& b() { return b_; }
    sim::Simulator& simulator() { return sim_; }

    /// Frames on both channels, and acks that rode DATA vs. went alone.
    std::uint64_t frames() const { return ab_.stats().sent + ba_.stats().sent; }
    std::uint64_t piggybacked() const { return a_.piggybacked() + b_.piggybacked(); }
    std::uint64_t standalone_acks() const { return a_.standalone_acks() + b_.standalone_acks(); }

private:
    /// B's view: it originates the reverse count, and its data travels
    /// the ack_link (which the horizon and NAK rules consult as the data
    /// lifetime).
    static runtime::EngineConfig reversed(runtime::EngineConfig cfg,
                                          const runtime::DuplexSpec& spec) {
        cfg.count = spec.rx_count;
        std::swap(cfg.data_link, cfg.ack_link);
        return cfg;
    }

    SimTime deadline_;
    std::size_t max_events_;
    sim::Simulator sim_;
    Rng rng_ab_;
    Rng rng_ba_;
    ByteChannel ab_;
    ByteChannel ba_;
    SimEndpoint<Core> a_;
    SimEndpoint<Core> b_;
};

}  // namespace bacp::link
