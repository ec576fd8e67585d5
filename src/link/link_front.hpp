#pragma once

/// \file link_front.hpp
/// The byte-payload front end of a reliable link, shared by the DES
/// (link::LinkEndpoint over SimEndpoint) and net (link::NetReliableLink
/// over NetEndpoint) flavours.
///
/// send() queues a payload and releases one message into the endpoint's
/// window (EngineConfig::app_arrivals).  The queue doubles as the
/// endpoint's random-access payload source -- a retransmission re-reads
/// any outstanding message -- and payloads the sender has retired are
/// dropped from its head, so it holds at most the window plus what is
/// still waiting for it.  Deliveries are counted and handed to the
/// application callback.

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "ba/bounded_receiver.hpp"
#include "ba/bounded_sender.hpp"
#include "ba/engine_core.hpp"
#include "common/assert.hpp"
#include "common/types.hpp"

namespace bacp::link {

/// The fully bounded protocol (SV) every link runs: residues mod 2w on
/// the wire.
using LinkCore = ba::EngineCore<ba::BoundedSender, ba::BoundedReceiver>;

template <typename Endpoint>
class LinkFront {
public:
    using DeliverFn = std::function<void(std::span<const std::uint8_t>)>;

    /// Binds \p endpoint's payload source and delivery sink; the
    /// endpoint must outlive the front end and must not be moved.
    explicit LinkFront(Endpoint& endpoint) : endpoint_(endpoint) {
        endpoint_.set_payload_source([this](Seq seq, std::vector<std::uint8_t>& out) {
            BACP_ASSERT_MSG(seq >= base_ && seq - base_ < queue_.size(),
                            "payload requested outside the send queue");
            const std::vector<std::uint8_t>& payload = queue_[seq - base_];
            out.assign(payload.begin(), payload.end());
        });
        endpoint_.set_deliver_sink([this](Seq, std::span<const std::uint8_t> payload) {
            ++delivered_;
            if (on_deliver_) on_deliver_(payload);
        });
    }

    LinkFront(const LinkFront&) = delete;
    LinkFront& operator=(const LinkFront&) = delete;

    void set_on_deliver(DeliverFn fn) { on_deliver_ = std::move(fn); }

    /// Queues one payload and pumps the window (frames may egress from
    /// inside this call).
    void send(std::vector<std::uint8_t> payload) {
        // A retired message is never transmitted again: drop its bytes.
        while (base_ < endpoint_.sent_new() && !endpoint_.tx_core().can_resend(base_)) {
            queue_.pop_front();
            ++base_;
        }
        queue_.push_back(std::move(payload));
        endpoint_.release(1);
    }

    /// Payloads accepted by send() so far.
    Seq accepted() const { return base_ + static_cast<Seq>(queue_.size()); }
    /// Payloads delivered in order from the peer.
    Seq delivered() const { return delivered_; }
    /// Everything accepted has been handed to the window and acknowledged.
    bool idle() const {
        return endpoint_.sent_new() == accepted() && !endpoint_.tx_core().has_outstanding();
    }

private:
    Endpoint& endpoint_;
    std::deque<std::vector<std::uint8_t>> queue_;  // from true seq base_ on
    Seq base_ = 0;
    Seq delivered_ = 0;
    DeliverFn on_deliver_;
};

}  // namespace bacp::link
