#pragma once

/// \file reliable_link.hpp
/// ReliableLink: the library's user-facing reliability layer.
///
/// A ReliableLink accepts arbitrary byte payloads and delivers them to the
/// far side *in order, exactly once*, over unreliable channels that may
/// lose, reorder, and corrupt frames.  It is a pair of LinkEndpoints over
/// two ByteChannels it owns: the sending end emits DATA on the data
/// channel, the receiving end ACK/NAK frames on the ack channel.  Both run
/// the paper's fully bounded protocol (SV): sequence numbers travel as
/// residues mod n = 2w (one varint byte for windows up to 64), block
/// acknowledgments cover whole runs, per-message conservative timers
/// recover losses, and the CRC-32C frame codec turns corruption into loss
/// -- the only failure mode the protocol's proof needs to handle.
///
/// Usage sketch (see examples/quickstart.cpp):
///
///   sim::Simulator sim;
///   link::ReliableLink link(sim, {.w = 16, .loss = 0.05});
///   link.set_on_deliver([](std::span<const std::uint8_t> p) { ... });
///   link.send({'h','i'});
///   sim.run();

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "link/byte_channel.hpp"
#include "link/link_endpoints.hpp"
#include "runtime/ack_policy.hpp"
#include "sim/simulator.hpp"

namespace bacp::link {

class ReliableLink {
public:
    struct Config {
        Seq w = 16;                       // window size; wire domain is 2w
        double loss = 0.0;                // per-direction frame loss probability
        double corrupt_p = 0.0;           // per-frame bit-flip probability
        SimTime delay_lo = 4 * kMillisecond;
        SimTime delay_hi = 6 * kMillisecond;
        SimTime timeout = 0;              // 0 = conservative derivation
        runtime::AckPolicy ack_policy = runtime::AckPolicy::eager();
        std::uint64_t seed = 1;
        /// Fast-retransmit extension: NAK the message blocking delivery
        /// after nak_threshold out-of-order arrivals (see DESIGN.md).
        bool enable_nak = false;
        Seq nak_threshold = 3;
    };

    using DeliverFn = LinkEndpoint::DeliverFn;

    /// \p options reaches both endpoints' cores (the negative controls
    /// of tests/test_negative_controls.cpp live there).
    ReliableLink(sim::Simulator& sim, Config config, LinkCore::Options options = {});
    ReliableLink(const ReliableLink&) = delete;
    ReliableLink& operator=(const ReliableLink&) = delete;

    /// Registers the in-order delivery callback (call before sending).
    void set_on_deliver(DeliverFn fn) { rx_.set_on_deliver(std::move(fn)); }

    /// Enqueues one payload for reliable, in-order transmission.
    void send(std::vector<std::uint8_t> payload) { tx_.send(std::move(payload)); }

    /// Payloads accepted but not yet handed to the protocol window.
    std::size_t queued() const { return tx_.queued(); }
    /// Payloads handed to the protocol so far.
    Seq sent_count() const { return tx_.sent_count(); }
    /// Payloads delivered in order at the far side.
    Seq delivered_count() const { return rx_.delivered_count(); }
    /// Everything enqueued has been delivered and acknowledged.
    bool idle() const { return tx_.idle(); }

    /// Frames rejected by the CRC / codec (treated as losses).
    std::uint64_t frames_rejected() const { return tx_.frames_rejected() + rx_.frames_rejected(); }
    std::uint64_t retransmissions() const { return tx_.retransmissions(); }
    std::uint64_t naks_sent() const { return rx_.naks_sent(); }
    std::uint64_t fast_retransmissions() const { return tx_.fast_retransmissions(); }
    const ByteChannelStats& data_stats() const { return data_ch_.stats(); }
    const ByteChannelStats& ack_stats() const { return ack_ch_.stats(); }
    SimTime timeout_value() const { return tx_.timeout_value(); }

private:
    ByteChannel::Config channel_config() const;
    EndpointConfig endpoint_config() const;

    Config cfg_;
    Rng rng_data_;
    Rng rng_ack_;
    ByteChannel data_ch_;
    ByteChannel ack_ch_;
    LinkEndpoint tx_;  // sends on data_ch_
    LinkEndpoint rx_;  // acks on ack_ch_
};

}  // namespace bacp::link
