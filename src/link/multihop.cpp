#include "link/multihop.hpp"

#include "common/assert.hpp"
#include "runtime/session_util.hpp"

namespace bacp::link {

namespace {

ByteChannel::Config hop_channel(const HopSpec& hop) {
    ByteChannel::Config config;
    if (hop.loss > 0) config.loss = std::make_unique<channel::BernoulliLoss>(hop.loss);
    config.delay = std::make_unique<channel::UniformDelay>(hop.delay_lo, hop.delay_hi);
    config.corrupt_p = hop.corrupt_p;
    return config;
}

SimTime path_lifetime(const PathConfig& cfg) {
    SimTime total = 0;
    for (const auto& hop : cfg.hops) total += hop.delay_hi;
    total += cfg.relay_delay * static_cast<SimTime>(cfg.hops.size() - 1);
    return total;
}

}  // namespace

// -------------------------------------------------------------- EndToEndPath

EndToEndPath::EndToEndPath(sim::Simulator& sim, PathConfig config) {
    BACP_ASSERT_MSG(!config.hops.empty(), "a path needs at least one hop");
    const std::size_t k = config.hops.size();
    for (std::size_t i = 0; i < k; ++i) {
        rngs_.push_back(std::make_unique<Rng>(runtime::mix_seed(config.seed, 2 * i)));
        forward_.push_back(std::make_unique<ByteChannel>(sim, *rngs_.back(),
                                                         hop_channel(config.hops[i]),
                                                         "f" + std::to_string(i)));
        rngs_.push_back(std::make_unique<Rng>(runtime::mix_seed(config.seed, 2 * i + 1)));
        reverse_.push_back(std::make_unique<ByteChannel>(sim, *rngs_.back(),
                                                         hop_channel(config.hops[i]),
                                                         "r" + std::to_string(i)));
    }

    EndpointConfig endpoint;
    endpoint.w = config.w;
    endpoint.path_lifetime = path_lifetime(config);
    endpoint.ack_policy = config.ack_policy;
    endpoint.enable_nak = config.enable_nak;

    tx_ = std::make_unique<LinkEndpoint>(sim, *forward_.front(), endpoint);
    rx_ = std::make_unique<LinkEndpoint>(sim, *reverse_.back(), endpoint);

    // Forward chain: hop i delivers into a relay feeding hop i+1; the last
    // hop delivers to the receiver.
    for (std::size_t i = 0; i + 1 < k; ++i) {
        relays_.push_back(std::make_unique<FrameRelay>(sim, *forward_[i + 1],
                                                       config.relay_delay));
        FrameRelay* relay = relays_.back().get();
        forward_[i]->set_receiver(
            [relay](const ByteChannel::Frame& frame) { relay->on_frame(frame); });
    }
    forward_.back()->set_receiver(
        [this](const ByteChannel::Frame& frame) { rx_->on_frame(frame); });

    // Reverse chain: hop i+1's reverse channel relays into hop i's; hop 0
    // delivers to the sender.
    for (std::size_t i = k; i-- > 1;) {
        relays_.push_back(std::make_unique<FrameRelay>(sim, *reverse_[i - 1],
                                                       config.relay_delay));
        FrameRelay* relay = relays_.back().get();
        reverse_[i]->set_receiver(
            [relay](const ByteChannel::Frame& frame) { relay->on_frame(frame); });
    }
    reverse_.front()->set_receiver(
        [this](const ByteChannel::Frame& frame) { tx_->on_frame(frame); });
}

std::uint64_t EndToEndPath::total_frames() const {
    std::uint64_t total = 0;
    for (const auto& ch : forward_) total += ch->stats().sent;
    for (const auto& ch : reverse_) total += ch->stats().sent;
    return total;
}

// -------------------------------------------------------------- HopByHopPath

HopByHopPath::HopByHopPath(sim::Simulator& sim, PathConfig config) {
    BACP_ASSERT_MSG(!config.hops.empty(), "a path needs at least one hop");
    const std::size_t k = config.hops.size();
    hops_.resize(k);
    for (std::size_t i = 0; i < k; ++i) {
        Hop& hop = hops_[i];
        hop.fwd_rng = std::make_unique<Rng>(runtime::mix_seed(config.seed, 100 + 2 * i));
        hop.rev_rng = std::make_unique<Rng>(runtime::mix_seed(config.seed, 101 + 2 * i));
        hop.forward = std::make_unique<ByteChannel>(sim, *hop.fwd_rng,
                                                    hop_channel(config.hops[i]),
                                                    "hf" + std::to_string(i));
        hop.reverse = std::make_unique<ByteChannel>(sim, *hop.rev_rng,
                                                    hop_channel(config.hops[i]),
                                                    "hr" + std::to_string(i));
        EndpointConfig endpoint;
        endpoint.w = config.w;
        endpoint.path_lifetime = config.hops[i].delay_hi;
        endpoint.ack_policy = config.ack_policy;
        endpoint.enable_nak = config.enable_nak;
        hop.tx = std::make_unique<LinkEndpoint>(sim, *hop.forward, endpoint);
        hop.rx = std::make_unique<LinkEndpoint>(sim, *hop.reverse, endpoint);
        hop.forward->set_receiver(
            [rx = hop.rx.get()](const ByteChannel::Frame& frame) { rx->on_frame(frame); });
        hop.reverse->set_receiver(
            [tx = hop.tx.get()](const ByteChannel::Frame& frame) { tx->on_frame(frame); });
    }
    // Intermediate nodes re-originate each delivered payload on the next
    // hop (store-and-forward with per-hop reliability); the final hop
    // delivers to the application.
    for (std::size_t i = 0; i + 1 < k; ++i) {
        LinkEndpoint* next = hops_[i + 1].tx.get();
        hops_[i].rx->set_on_deliver([next](std::span<const std::uint8_t> payload) {
            next->send(std::vector<std::uint8_t>(payload.begin(), payload.end()));
        });
    }
    hops_.back().rx->set_on_deliver([this](std::span<const std::uint8_t> payload) {
        ++delivered_;
        if (on_deliver_) on_deliver_(payload);
    });
}

bool HopByHopPath::idle() const {
    if (delivered_ != accepted_) return false;
    for (const auto& hop : hops_) {
        if (!hop.tx->idle()) return false;
    }
    return true;
}

std::uint64_t HopByHopPath::total_frames() const {
    std::uint64_t total = 0;
    for (const auto& hop : hops_) total += hop.forward->stats().sent + hop.reverse->stats().sent;
    return total;
}

std::uint64_t HopByHopPath::total_retransmissions() const {
    std::uint64_t total = 0;
    for (const auto& hop : hops_) total += hop.tx->retransmissions();
    return total;
}

}  // namespace bacp::link
