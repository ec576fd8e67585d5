#pragma once

/// \file stream_mux.hpp
/// Several independent reliable streams over one channel pair.
///
/// Each stream runs its own bounded block-acknowledgment instance (a
/// sending and a receiving LinkEndpoint tagged with a wire stream id);
/// the mux owns
/// the shared data/ack ByteChannels -- optionally a common bottleneck --
/// and dispatches inbound frames by stream id.
///
/// The point (bench_e15_streams): per-stream sequencing confines a loss
/// to the stream that suffered it.  Interleaving the same flows over ONE
/// sequenced stream makes any loss stall every flow behind the in-order
/// delivery gap -- head-of-line blocking.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "link/byte_channel.hpp"
#include "link/link_endpoints.hpp"
#include "runtime/ack_policy.hpp"
#include "sim/simulator.hpp"

namespace bacp::link {

class StreamMux {
public:
    struct Config {
        Seq streams = 4;
        Seq w = 8;  // per-stream window
        double loss = 0.0;
        double corrupt_p = 0.0;
        SimTime delay_lo = 4 * kMillisecond;
        SimTime delay_hi = 6 * kMillisecond;
        /// Shared bottleneck on the data channel (0 = off).
        SimTime service_time = 0;
        std::size_t queue_capacity = 64;
        runtime::AckPolicy ack_policy = runtime::AckPolicy::eager();
        bool enable_nak = false;
        std::uint64_t seed = 1;
    };

    using DeliverFn = std::function<void(Seq stream, std::span<const std::uint8_t>)>;

    StreamMux(sim::Simulator& sim, Config config);
    StreamMux(const StreamMux&) = delete;
    StreamMux& operator=(const StreamMux&) = delete;

    void set_on_deliver(DeliverFn fn) { on_deliver_ = std::move(fn); }

    /// Enqueues a payload on the given stream (0-based).
    void send(Seq stream, std::vector<std::uint8_t> payload);

    Seq streams() const { return cfg_.streams; }
    Seq delivered_count(Seq stream) const;
    bool idle() const;
    std::uint64_t retransmissions() const;
    std::uint64_t frames_misdirected() const { return misdirected_; }
    const ByteChannelStats& data_stats() const { return data_ch_.stats(); }
    const ByteChannelStats& ack_stats() const { return ack_ch_.stats(); }

private:
    ByteChannel::Config data_config() const;
    ByteChannel::Config ack_config() const;
    void on_data_frame(const ByteChannel::Frame& frame);
    void on_ack_frame(const ByteChannel::Frame& frame);
    /// Stream id of a valid frame, or wire::kNoStream when undecodable /
    /// untagged / out of range.
    Seq classify(const ByteChannel::Frame& frame) const;

    Config cfg_;
    Rng rng_data_;
    Rng rng_ack_;
    ByteChannel data_ch_;
    ByteChannel ack_ch_;
    std::vector<std::unique_ptr<LinkEndpoint>> tx_;  // DATA onto data_ch_
    std::vector<std::unique_ptr<LinkEndpoint>> rx_;  // ACK/NAK onto ack_ch_
    DeliverFn on_deliver_;
    std::uint64_t misdirected_ = 0;
};

}  // namespace bacp::link
