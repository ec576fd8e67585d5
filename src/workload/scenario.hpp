#pragma once

/// \file scenario.hpp
/// One-call experiment runner: describe a protocol + link + workload,
/// get Metrics back.  Benches, tests and examples all sweep through this
/// entry point so that every protocol is measured under identical channel
/// conditions and seeds.

#include <cstdint>
#include <optional>
#include <string>

#include "common/types.hpp"
#include "runtime/ack_policy.hpp"
#include "runtime/link_spec.hpp"
#include "runtime/timeout_mode.hpp"
#include "sim/metrics.hpp"

namespace bacp::workload {

enum class Protocol {
    BlockAck,           // SII/SIV unbounded cores (timeout_mode selects 2 vs 2')
    BlockAckBounded,    // SV fully bounded cores
    BlockAckHoleReuse,  // SVI extension sender
    GoBackN,            // cumulative acks, unbounded seqnums
    SelectiveRepeat,    // ack per message
    AlternatingBit,     // stop-and-wait over FIFO
    TimeConstrained,    // Stenning / Shankar-Lam spacing sender
};

const char* to_string(Protocol protocol);

struct Scenario {
    Protocol protocol = Protocol::BlockAck;
    Seq w = 8;
    Seq count = 2000;
    double loss = 0.0;       // data-channel loss probability
    double ack_loss = -1.0;  // ack-channel loss; -1 = same as loss
    SimTime delay_lo = 4 * kMillisecond;
    SimTime delay_hi = 6 * kMillisecond;
    bool fifo = false;       // force in-order channels
    bool burst_loss = false; // Gilbert-Elliott instead of Bernoulli
    /// nullopt = each protocol's classic timer discipline (see
    /// runtime::EngineConfig::timeout_mode); applies to every protocol.
    std::optional<runtime::TimeoutMode> timeout_mode;
    runtime::AckPolicy ack_policy = runtime::AckPolicy::eager();
    Seq tc_domain = 16;      // TimeConstrained: sequence-number domain N
    std::uint64_t seed = 1;
    bool check_invariants = false;  // BlockAck (unbounded) only
    bool enable_nak = false;        // BlockAck variants: fast retransmit
    bool adaptive_window = false;   // BlockAck variants: AIMD window
    SimTime arrival_interval = 0;   // BlockAck variants: open-loop arrivals
    bool poisson_arrivals = false;
    SimTime service_time = 0;       // data-link bottleneck (0 = off)
    std::size_t queue_capacity = 64;

    /// Derived ack-channel loss.
    double effective_ack_loss() const { return ack_loss < 0 ? loss : ack_loss; }
};

struct ScenarioResult {
    sim::Metrics metrics;
    sim::LatencyHistograms latency;
    bool completed = false;
};

/// Runs the scenario to completion (or its internal deadline).
ScenarioResult run_scenario(const Scenario& scenario);

/// Aggregates several replications (different seeds) of one scenario.
struct AggregateResult {
    double mean_throughput = 0.0;   // msgs/sec
    double sd_throughput = 0.0;     // sample standard deviation
    double min_throughput = 0.0;
    double max_throughput = 0.0;
    double mean_acks_per_msg = 0.0;
    double mean_retx_fraction = 0.0;
    double mean_latency_p50 = 0.0;  // ns
    double mean_latency_p99 = 0.0;  // ns
    int completed_runs = 0;
    int total_runs = 0;

    /// "mean +- sd [min,max] msg/s over k/n runs".
    std::string throughput_summary() const;
};
AggregateResult run_replicated(Scenario scenario, int replications);

}  // namespace bacp::workload
