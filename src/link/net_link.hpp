#pragma once

/// \file net_link.hpp
/// The link layer over the net runtime: ReliableLink's byte-payload API
/// (send() arbitrary payloads, in-order exactly-once delivery callbacks)
/// driven by a net::NetEndpoint -- runtime::DuplexDriver over a real
/// Transport and TimerWheel -- instead of the DES simulator and its
/// ByteChannels.  Same bounded cores as link::ReliableLink (residues mod
/// 2w on the wire), same failure model (CRC turns corruption into loss),
/// but the event loop is poll()-driven and both directions share one
/// socket: a NetReliableLink is duplex, and with piggyback on its acks
/// ride the reverse DATA as wire type 4 frames.
///
/// Payload flow is the LinkFront the DES link endpoints use too: sends
/// are application-gated (EngineConfig::app_arrivals), and send() queues
/// the bytes before releasing one message into the window, so the
/// payload source can always serve a retransmission of any outstanding
/// seq.
///
/// NetStreamMux runs several NetReliableLinks over ONE shared transport,
/// each tagged with a wire stream id (kFlagStream), and demuxes inbound
/// frames centrally -- the server's shard demux pattern, scaled down:
/// member links never recv (the mux owns the arena); they only stage
/// sends, with batch=1 so every frame lands in the shared socket the
/// same call.  Per-stream sequencing confines a loss to the stream that
/// suffered it, exactly as the DES mux demonstrates in E15.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "link/link_front.hpp"
#include "net/net_engine.hpp"
#include "net/timer_wheel.hpp"
#include "net/transport.hpp"
#include "runtime/ack_policy.hpp"
#include "wire/codec.hpp"

namespace bacp::link {

using NetLinkEndpoint = net::NetEndpoint<LinkCore>;

/// One duplex reliable byte link over a real transport.  Wire a pair of
/// these over the two ends of a transport pair (InprocTransport for
/// deterministic tests, UdpTransport for deployment); each side sends up
/// to `count` payloads and expects `rx_count` from its peer.
class NetReliableLink {
public:
    struct Config {
        Seq w = 16;          // window; wire domain is 2w
        Seq count = 0;       // payloads this side will send
        Seq rx_count = 0;    // payloads expected from the peer
        /// Defer acks so reverse DATA carries them (both sides of a link
        /// must agree, as with w).  On by default: a link layer is the
        /// duplex deployment the piggyback frame exists for.
        bool piggyback = true;
        SimTime piggyback_delay = 2 * kMillisecond;
        SimTime link_lifetime = 50 * kMillisecond;
        SimTime timeout = 0;  // 0 = conservative derivation
        runtime::AckPolicy ack_policy = runtime::AckPolicy::eager();
        std::uint64_t seed = 1;
        std::size_t max_payload = 1024;  // largest payload send() accepts
        Seq stream = wire::kNoStream;    // set by NetStreamMux
        std::size_t batch = 0;           // 0 = window-sized; mux uses 1
    };

    using DeliverFn = LinkFront<NetLinkEndpoint>::DeliverFn;

    /// \p wheel and \p transport must outlive the link; poll() fires the
    /// wheel, so a link (or its owning mux) is single-threaded.
    NetReliableLink(const Config& cfg, net::TimerWheel& wheel, net::Transport& transport)
        : cfg_(cfg), endpoint_(net_config(cfg), {}, wheel, transport), front_(endpoint_) {}

    NetReliableLink(const NetReliableLink&) = delete;
    NetReliableLink& operator=(const NetReliableLink&) = delete;

    /// Registers the in-order delivery callback (call before start()).
    void set_on_deliver(DeliverFn fn) { front_.set_on_deliver(std::move(fn)); }

    /// Call once before the poll loop.
    void start() { endpoint_.start(); }

    /// Queues one payload for reliable, in-order transmission and pumps
    /// the window (frames may egress from inside this call).
    void send(std::vector<std::uint8_t> payload) {
        BACP_ASSERT_MSG(front_.accepted() < cfg_.count, "more sends than Config.count");
        BACP_ASSERT_MSG(payload.size() <= cfg_.max_payload, "payload exceeds max_payload");
        front_.send(std::move(payload));
    }

    /// One event-loop iteration (timers, ingress, egress flush).
    std::size_t poll() { return endpoint_.poll(); }

    /// Every queued payload sent and acknowledged, every expected
    /// arrival delivered.
    bool done() const { return endpoint_.done(); }

    Seq sent_count() const { return front_.accepted(); }
    Seq delivered_count() const { return front_.delivered(); }

    NetLinkEndpoint& endpoint() { return endpoint_; }
    const NetLinkEndpoint& endpoint() const { return endpoint_; }

private:
    static net::NetConfig net_config(const Config& cfg) {
        net::NetConfig net;
        net.w = cfg.w;
        net.count = cfg.count;
        net.rx_count = cfg.rx_count;
        net.piggyback = cfg.piggyback;
        net.piggyback_delay = cfg.piggyback_delay;
        net.link_lifetime = cfg.link_lifetime;
        net.timeout = cfg.timeout;
        net.ack_policy = cfg.ack_policy;
        net.seed = cfg.seed;
        net.payload_size = cfg.max_payload;
        net.stream = cfg.stream;
        net.batch = cfg.batch;
        net.app_arrivals = true;  // send() gates the window
        return net;
    }

    Config cfg_;
    NetLinkEndpoint endpoint_;
    LinkFront<NetLinkEndpoint> front_;
};

/// Several independent reliable streams over one shared transport: the
/// net-runtime counterpart of link::StreamMux.  One NetReliableLink per
/// stream, every frame stream-tagged, one central recv loop demuxing by
/// id.  Each stream is itself duplex (count out, rx_count in, acks
/// piggybacked), so one mux object per socket end is the whole stack.
class NetStreamMux {
public:
    struct Config {
        Seq streams = 4;
        Seq w = 8;           // per-stream window
        Seq count = 0;       // per-stream payloads this side sends
        Seq rx_count = 0;    // per-stream payloads expected
        bool piggyback = true;
        SimTime piggyback_delay = 2 * kMillisecond;
        SimTime link_lifetime = 50 * kMillisecond;
        SimTime timeout = 0;
        runtime::AckPolicy ack_policy = runtime::AckPolicy::eager();
        std::uint64_t seed = 1;
        std::size_t max_payload = 1024;
        std::size_t arena = 32;  // central RecvBatch capacity
    };

    using DeliverFn = std::function<void(Seq stream, std::span<const std::uint8_t>)>;

    NetStreamMux(const Config& cfg, net::TimerWheel& wheel, net::Transport& transport)
        : wheel_(wheel),
          transport_(&transport),
          rx_(cfg.arena, cfg.max_payload + 128) {
        links_.reserve(cfg.streams);
        for (Seq s = 0; s < cfg.streams; ++s) {
            NetReliableLink::Config link_cfg;
            link_cfg.w = cfg.w;
            link_cfg.count = cfg.count;
            link_cfg.rx_count = cfg.rx_count;
            link_cfg.piggyback = cfg.piggyback;
            link_cfg.piggyback_delay = cfg.piggyback_delay;
            link_cfg.link_lifetime = cfg.link_lifetime;
            link_cfg.timeout = cfg.timeout;
            link_cfg.ack_policy = cfg.ack_policy;
            link_cfg.seed = cfg.seed + s;
            link_cfg.max_payload = cfg.max_payload;
            link_cfg.stream = s;
            // The member links never poll their own transport -- the mux
            // owns ingress -- so their egress must reach the socket the
            // moment it is staged.
            link_cfg.batch = 1;
            links_.push_back(std::make_unique<NetReliableLink>(link_cfg, wheel, transport));
        }
    }

    NetStreamMux(const NetStreamMux&) = delete;
    NetStreamMux& operator=(const NetStreamMux&) = delete;

    void set_on_deliver(DeliverFn fn) {
        on_deliver_ = std::move(fn);
        for (Seq s = 0; s < streams(); ++s) {
            links_[s]->set_on_deliver([this, s](std::span<const std::uint8_t> payload) {
                if (on_deliver_) on_deliver_(s, payload);
            });
        }
    }

    void start() {
        for (auto& link : links_) link->start();
    }

    /// Enqueues a payload on the given stream (0-based).
    void send(Seq stream, std::vector<std::uint8_t> payload) {
        BACP_ASSERT_MSG(stream < streams(), "stream out of range");
        links_[stream]->send(std::move(payload));
    }

    /// One event-loop iteration for the whole mux: fire the shared
    /// wheel (all streams' timers), then drain the shared socket and
    /// route each frame to its stream's endpoint -- each arena is one
    /// receive batch for every stream, so a stream's contiguous block
    /// acks leave as one frame when it ends.  Member links flush their
    /// own egress at stage time (batch=1).
    std::size_t poll() {
        std::size_t work = wheel_.fire_due();
        transport_->flush();
        for (;;) {
            for (auto& link : links_) link->endpoint().begin_batch();
            const std::size_t n = transport_->recv_batch(rx_);
            for (std::size_t i = 0; i < n; ++i) route(rx_[i]);
            for (auto& link : links_) link->endpoint().end_batch();
            work += n;
            if (n < rx_.capacity()) break;
        }
        return work;
    }

    bool done() const {
        for (const auto& link : links_) {
            if (!link->done()) return false;
        }
        return true;
    }

    Seq streams() const { return static_cast<Seq>(links_.size()); }
    Seq delivered_count(Seq stream) const { return links_[stream]->delivered_count(); }
    std::uint64_t dropped_frames() const { return dropped_; }

    NetReliableLink& link(Seq stream) { return *links_[stream]; }

private:
    void route(std::span<const std::uint8_t> bytes) {
        const wire::ViewResult result = wire::decode_view(bytes);
        if (!result.ok()) {
            ++dropped_;  // corruption = loss, as everywhere in the stack
            return;
        }
        const wire::FrameView& frame = result.frame();
        if ((frame.flags & wire::kFlagStream) == 0 || frame.stream >= streams()) {
            ++dropped_;  // untagged or unknown stream: nowhere to route
            return;
        }
        links_[frame.stream]->endpoint().handle_frame(frame);
    }

    net::TimerWheel& wheel_;
    net::Transport* transport_;
    net::RecvBatch rx_;
    std::vector<std::unique_ptr<NetReliableLink>> links_;
    DeliverFn on_deliver_;
    std::uint64_t dropped_ = 0;
};

}  // namespace bacp::link
