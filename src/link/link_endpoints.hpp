#pragma once

/// \file link_endpoints.hpp
/// Composable link endpoints for the DES.
///
/// A LinkEndpoint is one end of a reliable byte link: a SimEndpoint
/// running the fully bounded protocol (SV) behind the shared LinkFront.
/// It sends every frame on one *externally owned* outbound ByteChannel
/// and takes inbound frames through on_frame(), so arbitrary topologies
/// can be built: multi-hop relay paths, hop-by-hop reliability chains,
/// asymmetric routes, stream multiplexes (see multihop.hpp,
/// stream_mux.hpp, reliable_link.hpp).
///
/// An endpoint is open-ended in both directions: send() feeds its
/// sending half and DATA from the peer feeds its receiving half.  The
/// topology makes it one-way -- a sender's outbound channel carries its
/// DATA, a receiver's carries its ACK/NAK frames.  Every protocol rule
/// (conservative per-message timers, hole-gated retransmission, ack
/// clipping, the send horizon, optional NAK fast retransmit) is the
/// shared runtime driver's and ba::EngineCore's.

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "link/byte_channel.hpp"
#include "link/link_front.hpp"
#include "link/sim_endpoint.hpp"
#include "runtime/ack_policy.hpp"
#include "runtime/endpoint_driver.hpp"
#include "sim/simulator.hpp"
#include "wire/frame.hpp"

namespace bacp::link {

/// Shared endpoint parameters.
struct EndpointConfig {
    Seq w = 16;
    /// When not wire::kNoStream, every emitted frame carries this stream
    /// id (kFlagStream); used by StreamMux to share one channel pair.
    Seq stream = wire::kNoStream;
    /// Upper bound on one-way frame transit time over the path between
    /// the endpoints (propagation + queueing + relays).  Drives the
    /// conservative timeout, the send-horizon rule, and NAK gating.
    SimTime path_lifetime = 6 * kMillisecond;
    SimTime timeout = 0;  // 0 = derive: 2*path_lifetime + ack delay + 1ms
    runtime::AckPolicy ack_policy = runtime::AckPolicy::eager();
    bool enable_nak = false;
    Seq nak_threshold = 3;
};

class LinkEndpoint {
public:
    using DeliverFn = LinkFront<SimEndpoint<LinkCore>>::DeliverFn;

    /// \p out carries every frame this endpoint emits toward its peer;
    /// the owner feeds the peer's frames to on_frame().
    LinkEndpoint(sim::Simulator& sim, ByteChannel& out, const EndpointConfig& cfg,
                 LinkCore::Options options = {})
        : endpoint_(sim, out, engine_config(cfg), runtime::DuplexSpec{runtime::kUnboundedCount},
                    options, cfg.stream),
          front_(endpoint_) {
        endpoint_.start();
    }

    LinkEndpoint(const LinkEndpoint&) = delete;
    LinkEndpoint& operator=(const LinkEndpoint&) = delete;

    void set_on_deliver(DeliverFn fn) { front_.set_on_deliver(std::move(fn)); }

    /// Enqueues a payload for reliable, in-order transmission.
    void send(std::vector<std::uint8_t> payload) { front_.send(std::move(payload)); }

    /// Feeds one frame arriving from the peer.
    void on_frame(const ByteChannel::Frame& frame) { endpoint_.on_frame(frame); }

    /// Payloads accepted but not yet handed to the protocol window.
    std::size_t queued() const { return front_.accepted() - endpoint_.sent_new(); }
    /// Payloads handed to the protocol so far.
    Seq sent_count() const { return endpoint_.sent_new(); }
    /// Payloads delivered in order from the peer.
    Seq delivered_count() const { return front_.delivered(); }
    /// Everything sent has been delivered and acknowledged.
    bool idle() const { return front_.idle(); }

    std::uint64_t retransmissions() const { return endpoint_.tx_metrics().data_retx; }
    std::uint64_t fast_retransmissions() const { return endpoint_.tx_metrics().fast_retx; }
    std::uint64_t naks_sent() const { return endpoint_.rx_metrics().naks_sent; }
    /// Frames rejected by the CRC / codec or as impossible for the
    /// protocol (treated as losses).
    std::uint64_t frames_rejected() const {
        return endpoint_.tx_metrics().decode_errors + endpoint_.rx_metrics().decode_errors;
    }
    SimTime timeout_value() const { return endpoint_.timeout_value(); }

private:
    static runtime::EngineConfig engine_config(const EndpointConfig& cfg) {
        runtime::EngineConfig e;
        e.w = cfg.w;
        e.count = runtime::kUnboundedCount;
        e.app_arrivals = true;  // send() gates the window
        e.timeout = cfg.timeout;
        e.ack_policy = cfg.ack_policy;
        // The cores and the derived timeout consult only the lifetime.
        e.data_link = runtime::LinkSpec::lossless(0, cfg.path_lifetime);
        e.ack_link = runtime::LinkSpec::lossless(0, cfg.path_lifetime);
        e.enable_nak = cfg.enable_nak;
        e.nak_threshold = cfg.nak_threshold;
        return e;
    }

    SimEndpoint<LinkCore> endpoint_;
    LinkFront<SimEndpoint<LinkCore>> front_;
};

/// Store-and-forward frame relay: accepts frames from an upstream channel
/// and re-emits them downstream after a processing delay.  Relays are
/// oblivious to frame contents (they forward corrupted frames too -- CRC
/// is end-to-end).
class FrameRelay {
public:
    FrameRelay(sim::Simulator& sim, ByteChannel& downstream,
               SimTime processing_delay = 50 * kMicrosecond)
        : sim_(sim), downstream_(downstream), processing_delay_(processing_delay) {}

    void on_frame(const ByteChannel::Frame& frame) {
        ++forwarded_;
        // Init-capture: a plain copy-capture of the const ref would give
        // the closure a const member, making its move a throwing copy.
        sim_.schedule_after(processing_delay_, [this, frame = frame]() mutable {
            downstream_.send(std::move(frame));
        });
    }

    std::uint64_t forwarded() const { return forwarded_; }

private:
    sim::Simulator& sim_;
    ByteChannel& downstream_;
    SimTime processing_delay_;
    std::uint64_t forwarded_ = 0;
};

}  // namespace bacp::link
