#pragma once

/// \file multihop.hpp
/// Multi-hop reliability topologies built from link endpoints.
///
/// Two classic architectures over the same chain of lossy hops:
///
///   EndToEndPath   reliability only at the edges; intermediate nodes are
///                  dumb store-and-forward frame relays.  A loss anywhere
///                  costs a retransmission across the WHOLE path.
///   HopByHopPath   every hop runs its own reliable link; intermediate
///                  nodes reassemble payloads and re-originate them.
///                  A loss costs one hop's retransmission, but every node
///                  keeps per-flow state and adds store-and-forward and
///                  (re)acknowledgment work.
///
/// bench_e14_multihop measures the trade — the end-to-end argument made
/// quantitative on this library's own protocol.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "link/byte_channel.hpp"
#include "link/link_endpoints.hpp"
#include "sim/simulator.hpp"

namespace bacp::link {

/// One physical hop of the chain.
struct HopSpec {
    double loss = 0.0;
    double corrupt_p = 0.0;
    SimTime delay_lo = 1 * kMillisecond;
    SimTime delay_hi = 2 * kMillisecond;
};

struct PathConfig {
    Seq w = 16;
    std::vector<HopSpec> hops;           // at least one
    SimTime relay_delay = 50 * kMicrosecond;  // per intermediate node
    runtime::AckPolicy ack_policy = runtime::AckPolicy::eager();
    bool enable_nak = false;
    std::uint64_t seed = 1;
};

/// Common surface of the two architectures.
class MultihopPath {
public:
    using DeliverFn = LinkEndpoint::DeliverFn;

    virtual ~MultihopPath() = default;
    virtual void send(std::vector<std::uint8_t> payload) = 0;
    virtual void set_on_deliver(DeliverFn fn) = 0;
    virtual Seq delivered_count() const = 0;
    virtual bool idle() const = 0;
    /// Total frames placed on any channel (data + ack directions, all hops).
    virtual std::uint64_t total_frames() const = 0;
    /// Total end-to-end retransmissions (e2e) or sum across hops (hbh).
    virtual std::uint64_t total_retransmissions() const = 0;
};

class EndToEndPath final : public MultihopPath {
public:
    EndToEndPath(sim::Simulator& sim, PathConfig config);

    void send(std::vector<std::uint8_t> payload) override { tx_->send(std::move(payload)); }
    void set_on_deliver(DeliverFn fn) override { rx_->set_on_deliver(std::move(fn)); }
    Seq delivered_count() const override { return rx_->delivered_count(); }
    bool idle() const override { return tx_->idle(); }
    std::uint64_t total_frames() const override;
    std::uint64_t total_retransmissions() const override { return tx_->retransmissions(); }

private:
    std::vector<std::unique_ptr<Rng>> rngs_;
    std::vector<std::unique_ptr<ByteChannel>> forward_;  // hop i: node i -> i+1
    std::vector<std::unique_ptr<ByteChannel>> reverse_;  // hop i: node i+1 -> i
    std::vector<std::unique_ptr<FrameRelay>> relays_;    // keep-alive storage
    std::unique_ptr<LinkEndpoint> tx_;  // at the source, DATA onto hop 0
    std::unique_ptr<LinkEndpoint> rx_;  // at the sink, ACK/NAK onto the last hop
};

class HopByHopPath final : public MultihopPath {
public:
    HopByHopPath(sim::Simulator& sim, PathConfig config);

    void send(std::vector<std::uint8_t> payload) override {
        ++accepted_;
        hops_.front().tx->send(std::move(payload));
    }
    void set_on_deliver(DeliverFn fn) override { on_deliver_ = std::move(fn); }
    Seq delivered_count() const override { return delivered_; }
    bool idle() const override;
    std::uint64_t total_frames() const override;
    std::uint64_t total_retransmissions() const override;

private:
    struct Hop {
        std::unique_ptr<Rng> fwd_rng;
        std::unique_ptr<Rng> rev_rng;
        std::unique_ptr<ByteChannel> forward;
        std::unique_ptr<ByteChannel> reverse;
        std::unique_ptr<LinkEndpoint> tx;  // at the hop's upstream node
        std::unique_ptr<LinkEndpoint> rx;  // at the hop's downstream node
    };

    std::vector<Hop> hops_;
    DeliverFn on_deliver_;
    Seq accepted_ = 0;
    Seq delivered_ = 0;
};

}  // namespace bacp::link
