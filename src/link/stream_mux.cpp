#include "link/stream_mux.hpp"

#include "common/assert.hpp"
#include "runtime/session_util.hpp"
#include "wire/codec.hpp"

namespace bacp::link {

ByteChannel::Config StreamMux::data_config() const {
    ByteChannel::Config config;
    if (cfg_.loss > 0) config.loss = std::make_unique<channel::BernoulliLoss>(cfg_.loss);
    config.delay = std::make_unique<channel::UniformDelay>(cfg_.delay_lo, cfg_.delay_hi);
    config.corrupt_p = cfg_.corrupt_p;
    config.service_time = cfg_.service_time;
    config.queue_capacity = cfg_.queue_capacity;
    return config;
}

ByteChannel::Config StreamMux::ack_config() const {
    ByteChannel::Config config;
    if (cfg_.loss > 0) config.loss = std::make_unique<channel::BernoulliLoss>(cfg_.loss);
    config.delay = std::make_unique<channel::UniformDelay>(cfg_.delay_lo, cfg_.delay_hi);
    config.corrupt_p = cfg_.corrupt_p;
    return config;  // acks are small: no bottleneck modeled
}

StreamMux::StreamMux(sim::Simulator& sim, Config config)
    : cfg_(std::move(config)),
      rng_data_(runtime::mix_seed(cfg_.seed, 0xd1)),
      rng_ack_(runtime::mix_seed(cfg_.seed, 0xac)),
      data_ch_(sim, rng_data_, data_config(), "mux-data"),
      ack_ch_(sim, rng_ack_, ack_config(), "mux-ack") {
    BACP_ASSERT_MSG(cfg_.streams >= 1, "need at least one stream");
    EndpointConfig endpoint;
    endpoint.w = cfg_.w;
    // A frame can wait behind the shared bottleneck queue.
    endpoint.path_lifetime =
        cfg_.delay_hi + (cfg_.service_time > 0
                             ? cfg_.service_time * static_cast<SimTime>(cfg_.queue_capacity + 1)
                             : 0);
    endpoint.ack_policy = cfg_.ack_policy;
    endpoint.enable_nak = cfg_.enable_nak;
    for (Seq id = 0; id < cfg_.streams; ++id) {
        endpoint.stream = id;
        tx_.push_back(std::make_unique<LinkEndpoint>(sim, data_ch_, endpoint));
        rx_.push_back(std::make_unique<LinkEndpoint>(sim, ack_ch_, endpoint));
        rx_.back()->set_on_deliver([this, id](std::span<const std::uint8_t> payload) {
            if (on_deliver_) on_deliver_(id, payload);
        });
    }
    data_ch_.set_receiver([this](const ByteChannel::Frame& f) { on_data_frame(f); });
    ack_ch_.set_receiver([this](const ByteChannel::Frame& f) { on_ack_frame(f); });
}

void StreamMux::send(Seq stream, std::vector<std::uint8_t> payload) {
    BACP_ASSERT_MSG(stream < cfg_.streams, "stream id out of range");
    tx_[static_cast<std::size_t>(stream)]->send(std::move(payload));
}

Seq StreamMux::classify(const ByteChannel::Frame& frame) const {
    const auto decoded = wire::decode(std::span<const std::uint8_t>(frame.data(), frame.size()));
    if (!decoded.ok()) return wire::kNoStream;
    const Seq stream = wire::stream_of(decoded.frame());
    if (stream >= cfg_.streams) return wire::kNoStream;
    return stream;
}

void StreamMux::on_data_frame(const ByteChannel::Frame& frame) {
    const Seq stream = classify(frame);
    if (stream == wire::kNoStream) {
        ++misdirected_;
        return;  // corrupted frames count as loss, exactly like point-to-point
    }
    rx_[static_cast<std::size_t>(stream)]->on_frame(frame);
}

void StreamMux::on_ack_frame(const ByteChannel::Frame& frame) {
    const Seq stream = classify(frame);
    if (stream == wire::kNoStream) {
        ++misdirected_;
        return;
    }
    tx_[static_cast<std::size_t>(stream)]->on_frame(frame);
}

Seq StreamMux::delivered_count(Seq stream) const {
    BACP_ASSERT(stream < cfg_.streams);
    return rx_[static_cast<std::size_t>(stream)]->delivered_count();
}

bool StreamMux::idle() const {
    for (const auto& tx : tx_) {
        if (!tx->idle()) return false;
    }
    return true;
}

std::uint64_t StreamMux::retransmissions() const {
    std::uint64_t total = 0;
    for (const auto& tx : tx_) total += tx->retransmissions();
    return total;
}

}  // namespace bacp::link
