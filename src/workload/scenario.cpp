#include "workload/scenario.hpp"

#include "common/stats.hpp"
#include "workload/report.hpp"

#include "runtime/sessions.hpp"

namespace bacp::workload {

const char* to_string(Protocol protocol) {
    switch (protocol) {
        case Protocol::BlockAck: return "block-ack";
        case Protocol::BlockAckBounded: return "block-ack-bounded";
        case Protocol::BlockAckHoleReuse: return "block-ack-hole-reuse";
        case Protocol::GoBackN: return "go-back-n";
        case Protocol::SelectiveRepeat: return "selective-repeat";
        case Protocol::AlternatingBit: return "alternating-bit";
        case Protocol::TimeConstrained: return "time-constrained";
    }
    return "?";
}

namespace {

runtime::LinkSpec make_link(const Scenario& s, double loss) {
    runtime::LinkSpec spec;
    if (s.burst_loss) {
        spec.loss_kind = runtime::LinkSpec::Loss::GilbertElliott;
        // Parameterize the chain so its steady-state loss matches `loss`
        // with bursty structure: bad state loses half its messages.
        spec.ge_loss_good = 0.0;
        spec.ge_loss_bad = 0.5;
        spec.ge_p_bad_to_good = 0.2;
        // pi_bad * 0.5 = loss  =>  pi_bad = 2*loss; p_gb = p_bg*pi/(1-pi).
        const double pi_bad = std::min(0.9, 2.0 * loss);
        spec.ge_p_good_to_bad = pi_bad >= 0.9 ? 1.0 : 0.2 * pi_bad / (1.0 - pi_bad);
    } else if (loss > 0.0) {
        spec.loss_kind = runtime::LinkSpec::Loss::Bernoulli;
        spec.loss_p = loss;
    }
    spec.delay_kind = s.delay_lo == s.delay_hi ? runtime::LinkSpec::Delay::Fixed
                                               : runtime::LinkSpec::Delay::Uniform;
    spec.delay_lo = s.delay_lo;
    spec.delay_hi = s.delay_hi;
    spec.fifo = s.fifo;
    return spec;
}

// The data link optionally carries the bottleneck-queue model; the ack
// channel is assumed thin (acks are small).
runtime::LinkSpec make_data_link(const Scenario& s) {
    runtime::LinkSpec spec = make_link(s, s.loss);
    spec.service_time = s.service_time;
    spec.queue_capacity = s.queue_capacity;
    return spec;
}

/// Every protocol runs from the same EngineConfig; only the core type
/// (and its Options) varies per Protocol.
runtime::EngineConfig engine_config(const Scenario& s) {
    runtime::EngineConfig config;
    config.w = s.w;
    config.count = s.count;
    config.timeout_mode = s.timeout_mode;
    config.ack_policy = s.ack_policy;
    config.data_link = make_data_link(s);
    config.ack_link = make_link(s, s.effective_ack_loss());
    config.seed = s.seed;
    config.check_invariants = s.check_invariants;
    config.enable_nak = s.enable_nak;
    config.adaptive_window = s.adaptive_window;
    config.arrival_interval = s.arrival_interval;
    config.poisson_arrivals = s.poisson_arrivals;
    return config;
}

template <typename Session>
ScenarioResult run_session(const Scenario& s, typename Session::Options options = {}) {
    Session session(engine_config(s), options);
    ScenarioResult result;
    result.metrics = session.run();
    result.latency = session.latency();
    result.completed = session.completed();
    return result;
}

}  // namespace

ScenarioResult run_scenario(const Scenario& s) {
    switch (s.protocol) {
        case Protocol::BlockAck:
            return run_session<runtime::UnboundedSession>(s);
        case Protocol::BlockAckBounded:
            return run_session<runtime::BoundedSession>(s);
        case Protocol::BlockAckHoleReuse:
            return run_session<runtime::HoleReuseSession>(s);
        case Protocol::GoBackN:
            return run_session<runtime::GbnSession>(s);
        case Protocol::SelectiveRepeat:
            return run_session<runtime::SrSession>(s);
        case Protocol::AlternatingBit:
            return run_session<runtime::AbpSession>(s);
        case Protocol::TimeConstrained:
            return run_session<runtime::TcSession>(s, {.domain = s.tc_domain});
    }
    return {};
}

AggregateResult run_replicated(Scenario scenario, int replications) {
    AggregateResult aggregate;
    aggregate.total_runs = replications;
    RunningStats throughput;
    for (int i = 0; i < replications; ++i) {
        scenario.seed = scenario.seed * 6364136223846793005ULL + 1442695040888963407ULL;
        const auto result = run_scenario(scenario);
        if (!result.completed) continue;
        ++aggregate.completed_runs;
        throughput.add(result.metrics.throughput_msgs_per_sec());
        aggregate.mean_acks_per_msg += result.metrics.acks_per_delivered();
        aggregate.mean_retx_fraction += result.metrics.retx_fraction();
        aggregate.mean_latency_p50 += static_cast<double>(result.latency.delivery.quantile(0.5));
        aggregate.mean_latency_p99 += static_cast<double>(result.latency.delivery.quantile(0.99));
    }
    if (aggregate.completed_runs > 0) {
        const double n = aggregate.completed_runs;
        aggregate.mean_throughput = throughput.mean();
        aggregate.sd_throughput = throughput.stddev();
        aggregate.min_throughput = throughput.min();
        aggregate.max_throughput = throughput.max();
        aggregate.mean_acks_per_msg /= n;
        aggregate.mean_retx_fraction /= n;
        aggregate.mean_latency_p50 /= n;
        aggregate.mean_latency_p99 /= n;
    }
    return aggregate;
}

std::string AggregateResult::throughput_summary() const {
    return fmt(mean_throughput, 1) + " +- " + fmt(sd_throughput, 1) + " [" +
           fmt(min_throughput, 1) + "," + fmt(max_throughput, 1) + "] msg/s over " +
           std::to_string(completed_runs) + "/" + std::to_string(total_runs) + " runs";
}

}  // namespace bacp::workload
