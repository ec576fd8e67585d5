#include "link/reliable_link.hpp"

#include "runtime/session_util.hpp"

namespace bacp::link {

ByteChannel::Config ReliableLink::channel_config() const {
    ByteChannel::Config config;
    if (cfg_.loss > 0.0) config.loss = std::make_unique<channel::BernoulliLoss>(cfg_.loss);
    config.delay = std::make_unique<channel::UniformDelay>(cfg_.delay_lo, cfg_.delay_hi);
    config.corrupt_p = cfg_.corrupt_p;
    return config;
}

EndpointConfig ReliableLink::endpoint_config() const {
    EndpointConfig endpoint;
    endpoint.w = cfg_.w;
    endpoint.path_lifetime = cfg_.delay_hi;
    endpoint.timeout = cfg_.timeout;
    endpoint.ack_policy = cfg_.ack_policy;
    endpoint.enable_nak = cfg_.enable_nak;
    endpoint.nak_threshold = cfg_.nak_threshold;
    return endpoint;
}

ReliableLink::ReliableLink(sim::Simulator& sim, Config config, LinkCore::Options options)
    : cfg_(std::move(config)),
      rng_data_(runtime::mix_seed(cfg_.seed, 0xd1)),
      rng_ack_(runtime::mix_seed(cfg_.seed, 0xac)),
      data_ch_(sim, rng_data_, channel_config(), "data"),
      ack_ch_(sim, rng_ack_, channel_config(), "ack"),
      tx_(sim, data_ch_, endpoint_config(), options),
      rx_(sim, ack_ch_, endpoint_config(), options) {
    data_ch_.set_receiver([this](const ByteChannel::Frame& f) { rx_.on_frame(f); });
    ack_ch_.set_receiver([this](const ByteChannel::Frame& f) { tx_.on_frame(f); });
}

}  // namespace bacp::link
