#pragma once

/// \file engine.hpp
/// The discrete-event transport runtime: a DES adapter over
/// runtime::EndpointDriver.
///
/// Engine<Core> supplies the *environment* -- the simulator (virtual
/// time + TimerService), the two SimChannels, trace recording, the
/// invariant-check hook, and the seed/deadline/max_events policy -- and
/// delegates every protocol decision (timeout disciplines, window
/// pumping, ack policy, resend selection) to the embedded
/// EndpointDriver.  The real-time runtime (net::NetEndpoint over
/// DuplexDriver) adapts the same driver over sockets; the driving
/// logic exists exactly once, in endpoint_driver.hpp.
///
/// The DES is the one environment that can *prove* quiescence: when the
/// event queue drains, both channels are empty by construction.  It
/// therefore advertises kHasOracle and fires the oracle timeout modes
/// from a simulator idle hook instead of the driver's quiescence-timer
/// approximation.
///
/// The engine speaks *true* (unbounded) sequence numbers everywhere:
/// send_new is numbered by arrival order, and resend candidates are true
/// sequence numbers.  Cores whose wire format is a residue (mod 2w or
/// mod N) translate internally -- the paper's proof technique of
/// reasoning about ghost values the implementation no longer stores.

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/timer_service.hpp"
#include "common/types.hpp"
#include "protocol/message.hpp"
#include "runtime/endpoint_core.hpp"
#include "runtime/endpoint_driver.hpp"
#include "runtime/link_spec.hpp"
#include "runtime/session_util.hpp"
#include "runtime/timeout_mode.hpp"
#include "sim/metrics.hpp"
#include "sim/sim_channel.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "verify/invariants.hpp"

namespace bacp::runtime {

// EngineConfig, derived_timeout/effective_timeout, and the driver itself
// live in endpoint_driver.hpp (shared verbatim with src/net); TxView,
// RxOutcome, the EndpointCore concept, and the kCore* traits live in
// endpoint_core.hpp.

template <EndpointCore Core>
class Engine {
public:
    using Options = typename Core::Options;

    explicit Engine(EngineConfig config, Options options = {})
        : cfg_(std::move(config)),
          rng_data_(mix_seed(cfg_.seed, 0xd1)),
          rng_ack_(mix_seed(cfg_.seed, 0xac)),
          data_ch_(sim_, rng_data_, channel_config(cfg_.data_link), "C_SR"),
          ack_ch_(sim_, rng_ack_, channel_config(cfg_.ack_link), "C_RS"),
          driver_(cfg_, std::move(options), *this) {
        data_ch_.set_receiver([this](const proto::Message& m) {
            const auto& msg = std::get<proto::Data>(m);
            if (cfg_.record_trace) {
                trace_.record(sim_.now(), "R", "rcv " + proto::to_string(msg));
            }
            driver_.handle_data(msg);
        });
        ack_ch_.set_receiver([this](const proto::Message& m) {
            if (const auto* ack = std::get_if<proto::Ack>(&m)) {
                if (cfg_.record_trace) {
                    trace_.record(sim_.now(), "S", "rcv " + proto::to_string(*ack));
                }
                driver_.handle_ack(*ack);
            } else {
                const auto& nak = std::get<proto::Nak>(m);
                if (cfg_.record_trace) {
                    trace_.record(sim_.now(), "S", "rcv N(" + std::to_string(nak.seq) + ")");
                }
                driver_.handle_nak(nak);
            }
        });
        if (cfg_.record_trace) {
            data_ch_.set_trace(&trace_);
            ack_ch_.set_trace(&trace_);
        }
        if (driver_.mode() == TimeoutMode::OracleSimple ||
            driver_.mode() == TimeoutMode::OraclePerMessage) {
            sim_.add_idle_hook([this] {
                if (!driver_.core().has_outstanding()) return false;
                // The proof the oracle modes rely on: an idle DES has
                // nothing scheduled, so nothing is in flight.
                BACP_ASSERT(data_ch_.in_flight() == 0 && ack_ch_.in_flight() == 0);
                return driver_.oracle_fire();
            });
        }
        // Concurrent events are bounded by the window: at most w data
        // copies + w per-message timers in flight each way, plus the
        // handful of driver-owned timers.  (The driver pre-sizes its own
        // per-seq tables.)
        sim_.reserve_events(8 * cfg_.w + 64);
    }

    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    /// Runs the transfer to completion (or deadline/event cap) and
    /// returns the counters; the latency distributions are in latency().
    sim::Metrics run() {
        driver_.start();
        sim_.run_until(cfg_.deadline, cfg_.max_events);
        sim::Metrics& m = driver_.metrics_mut();
        if (m.end_time == 0) m.end_time = sim_.now();
        m.sr_dropped = data_ch_.stats().dropped;
        m.rs_dropped = ack_ch_.stats().dropped;
        return m;
    }

    /// Opens the faucet without running the simulator: callers advance
    /// virtual time themselves via simulator().run_until().  The chaos
    /// harness (src/chaos) drives runs in slices this way, injecting
    /// faults and probing invariants between slices; run() is the
    /// one-shot equivalent.
    void start() { driver_.start(); }

    /// All messages delivered in order and fully acknowledged.
    bool completed() const { return driver_.completed(); }

    Seq delivered() const { return driver_.delivered(); }
    SimTime timeout_value() const { return driver_.timeout_value(); }
    TimeoutMode timeout_mode() const { return driver_.mode(); }
    const Core& core() const { return driver_.core(); }
    const sim::Metrics& metrics() const { return driver_.metrics(); }
    /// Delivery and ack latency of the run, in simulated time.
    const sim::LatencyHistograms& latency() const { return latency_; }
    const sim::TraceRecorder& trace() const { return trace_; }
    sim::Simulator& simulator() { return sim_; }
    const std::vector<std::string>& invariant_violations() const { return violations_; }

    /// The embedded protocol driver -- the chaos corruptors reach its
    /// state/timer fault hooks through here.
    EndpointDriver<Core, Engine>& driver() { return driver_; }

    /// The two simulated channels, for in-flight fault injection
    /// (duplication storms, reorder bursts, payload mutation).
    sim::SimChannel& data_channel() { return data_ch_; }
    sim::SimChannel& ack_channel() { return ack_ch_; }

    /// Non-fatal invariant probe (the chaos convergence checker):
    /// evaluates assertions 6-8 against the current endpoint + channel
    /// state and returns the report instead of asserting.  Requires
    /// set-tracked channels (LinkSpec::track_contents, or
    /// cfg.check_invariants).
    verify::InvariantReport probe_invariants(verify::ChannelStrictness strictness) const
        requires(Core::kInvariantCheckable)
    {
        return verify::check_invariants(driver_.core().sender_core(),
                                        driver_.core().receiver_core(), data_ch_.snapshot(),
                                        ack_ch_.snapshot(), strictness);
    }

    /// Attach (or detach, with nullptr) a protocol-decision recorder --
    /// the cross-runtime parity test compares this stream against the
    /// net runtime's.
    void set_decision_log(DecisionLog* log) { driver_.set_decision_log(log); }

    decltype(auto) sender_core() const
        requires requires(const Core& c) { c.sender_core(); }
    {
        return driver_.core().sender_core();
    }
    decltype(auto) receiver_core() const
        requires requires(const Core& c) { c.receiver_core(); }
    {
        return driver_.core().receiver_core();
    }

    // ---- Environment hooks (called by EndpointDriver) ----------------------
    // Public because the driver is a distinct type, not a friend; these
    // are the DES halves of the DriverEnvironment concept, not user API.

    static constexpr bool kHasOracle = true;

    TimerService& timer_service() { return sim_; }
    SimTime now() const { return sim_.now(); }

    void send_data(const proto::Data& msg, Seq /*true_seq*/, bool retx) {
        if (cfg_.record_trace) {
            trace_.record(sim_.now(), "S",
                          std::string(retx ? "resend " : "send ") + proto::to_string(msg));
        }
        data_ch_.send(msg);
    }

    void send_ack(const proto::Ack& ack, AckKind kind) {
        if (cfg_.record_trace) {
            trace_.record(sim_.now(), "R",
                          std::string(kind == AckKind::Dup ? "dup-ack " : "ack ") +
                              proto::to_string(ack));
        }
        ack_ch_.send(ack);
    }

    void send_nak(const proto::Nak& nak) {
        if (cfg_.record_trace) {
            trace_.record(sim_.now(), "R", "nak N(" + std::to_string(nak.seq) + ")");
        }
        ack_ch_.send(nak);
    }

    void on_delivery(Seq /*true_seq*/) {}  // payload handoff is a net-runtime concern

    void after_step() { maybe_check_invariants(); }

    sim::LatencyHistograms& latency() { return latency_; }

private:
    static constexpr bool kInvariantCheckable = Core::kInvariantCheckable;

    sim::SimChannel::Config channel_config(LinkSpec spec) const {
        spec.fifo |= Core::kRequiresFifo;
        spec.track_contents |= cfg_.check_invariants;
        return spec.make_config();
    }

    void maybe_check_invariants() {
        if constexpr (kInvariantCheckable) {
            if (!cfg_.check_invariants) return;
            // The realistic per-message timer mode legitimately relaxes
            // assertion 8's channel conjuncts (see ba/engine_core.hpp).
            const auto strictness = driver_.mode() == TimeoutMode::PerMessageTimer
                                        ? verify::ChannelStrictness::Relaxed
                                        : verify::ChannelStrictness::Strict;
            const auto report = verify::check_invariants(
                driver_.core().sender_core(), driver_.core().receiver_core(),
                data_ch_.snapshot(), ack_ch_.snapshot(), strictness);
            if (!report.ok()) {
                violations_.insert(violations_.end(), report.violations.begin(),
                                   report.violations.end());
                BACP_ASSERT_MSG(false, "invariant violated during DES run: " + report.to_string());
            }
        }
    }

    EngineConfig cfg_;
    sim::Simulator sim_;
    Rng rng_data_;
    Rng rng_ack_;
    sim::TraceRecorder trace_;
    sim::LatencyHistograms latency_;
    sim::SimChannel data_ch_;
    sim::SimChannel ack_ch_;
    std::vector<std::string> violations_;
    EndpointDriver<Core, Engine> driver_;  // last: its ctor uses the members above
};

}  // namespace bacp::runtime
