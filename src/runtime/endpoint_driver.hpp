#pragma once

/// \file endpoint_driver.hpp
/// The environment-independent protocol-driving layer.
///
/// EndpointDriver<Core, Env> owns every decision a session runtime makes
/// that does not depend on what kind of time or channel is underneath:
/// the four TimeoutMode disciplines, send-horizon window pumping, ack
/// absorption and the AckPolicy, resend-candidate rescans, the NAK fast
/// path, in-order delivery accounting, and the derived-timeout
/// computation.  The discrete-event runtime::Engine and the real-time
/// net::NetEndpoint (via DuplexDriver) are thin adapters over this class:
/// they supply an *Environment* -- a clock, a TimerService, egress /
/// delivery / verification hooks, and the latency sink the driver
/// records into (its own sim::Metrics holds counters only) -- and
/// forward arriving protocol messages to handle_ack / handle_nak /
/// handle_data.  The driver logic therefore exists exactly once and is
/// exercised identically over virtual and wall-clock time
/// (tests/test_driver_parity.cpp pins that).
///
/// The one genuine environment difference is expressed as a capability
/// rather than forked code: Env::kHasOracle.  A DES can *prove*
/// quiescence (empty event queue => empty channels) and fires the oracle
/// timeout modes from an idle hook calling oracle_fire(); a real network
/// has no such oracle, so when kHasOracle is false the driver runs a
/// quiescence timer instead -- restarted on every send and ack while
/// messages are outstanding, firing after a full conservative timeout of
/// silence, by which time any copy in flight has aged out of the
/// channel.  The resend *sets* are the paper's in both worlds; only the
/// firing moment is heuristic.  See DESIGN.md (endpoint driver).
///
/// Timer timeouts default to L_SR + L_RS + max_ack_delay + margin
/// (derived_timeout below), the conservative bound that preserves the
/// paper's assertion 8 ("at most one copy of each data message or its
/// acknowledgment is in transit").

#include <bit>
#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/timer_service.hpp"
#include "common/types.hpp"
#include "protocol/message.hpp"
#include "runtime/ack_policy.hpp"
#include "runtime/endpoint_core.hpp"
#include "runtime/link_spec.hpp"
#include "runtime/session_util.hpp"
#include "runtime/timeout_mode.hpp"
#include "sim/metrics.hpp"

namespace bacp::runtime {

/// One configuration for every protocol and both runtimes.  The DES
/// engine consumes it directly; net::NetConfig derives from it, adding
/// only the knobs a real network introduces (payload bytes, impairment,
/// transport batching).  Core-specific knobs (residue domain, reuse
/// interval, ...) live in the core's Options struct.
struct EngineConfig {
    Seq w = 8;
    Seq count = 1000;  // messages to transfer (kUnboundedCount: open-ended)
    /// nullopt = the core's classic discipline (PerMessageTimer for the
    /// block-ack family and selective repeat, SimpleTimer for the
    /// single-timer baselines).
    std::optional<TimeoutMode> timeout_mode;
    SimTime timeout = 0;  // 0 = derive conservatively from links + ack policy
    AckPolicy ack_policy = AckPolicy::eager();
    LinkSpec data_link = LinkSpec::lossless();
    LinkSpec ack_link = LinkSpec::lossless();
    std::uint64_t seed = 1;
    SimTime deadline = 3600 * kSecond;
    std::size_t max_events = 50'000'000;
    bool record_trace = false;
    /// Check assertions 6-8 after every protocol step (unbounded BA cores
    /// over set-tracked channels only); violations throw AssertionError.
    bool check_invariants = false;
    /// Fast-retransmit extension (BA cores): the receiver NAKs the
    /// message blocking vr after nak_threshold out-of-order arrivals; the
    /// sender resends it as soon as the previous copy has provably aged
    /// out of the channel.  Advisory: NAK loss or duplication affects
    /// only latency.  See DESIGN.md (extensions).
    bool enable_nak = false;
    Seq nak_threshold = 3;
    /// Variable-window extension (paper SVI): AIMD adaptation of the
    /// effective window limit within [1, w].  Only meaningful when the
    /// data link models a bottleneck queue, and only for cores whose
    /// sender supports set_window_limit.
    bool adaptive_window = false;
    /// Open-loop workload: when > 0, messages become available one per
    /// interval (exponential gaps when poisson_arrivals) instead of all
    /// upfront; `count` still bounds the total.  Latency then measures
    /// arrival-to-delivery sojourn (queueing included).
    SimTime arrival_interval = 0;
    bool poisson_arrivals = false;
    /// Application-gated workload: start() releases nothing, and each
    /// message becomes available only when the application calls
    /// EndpointDriver::release() -- the link layer's send() path, where
    /// payload bytes exist only after the caller queues them.  `count`
    /// still bounds the total.  Mutually exclusive with
    /// arrival_interval > 0.
    bool app_arrivals = false;
};

/// EngineConfig::count (or DuplexSpec::rx_count) of an open-ended
/// transfer -- the link layer's send queue, whose total the application
/// never announces.  Pair it with app_arrivals.  Nothing the driver
/// keeps is sized by the count: per-message state lives in a
/// window-sized SendRing.
inline constexpr Seq kUnboundedCount = std::numeric_limits<Seq>::max();

/// The conservative retransmission timeout: one data lifetime out, one
/// ack lifetime back, the longest the receiver may sit on an ack, plus a
/// millisecond of margin.  Waiting this long before resending preserves
/// the paper's assertion 8 -- at most one copy of each data message or
/// its acknowledgment is in transit -- because the previous copy (and
/// any ack it provoked) has provably aged out of both channels.  Both
/// runtimes derive from here; tests/test_runtime_util.cpp pins the bound.
inline SimTime derived_timeout(const LinkSpec& data_link, const LinkSpec& ack_link,
                               const AckPolicy& ack_policy) {
    return data_link.max_lifetime() + ack_link.max_lifetime() + ack_policy.max_ack_delay() +
           kMillisecond;
}

/// The timeout a configuration actually runs with: explicit, or derived.
inline SimTime effective_timeout(const EngineConfig& cfg) {
    return cfg.timeout > 0 ? cfg.timeout
                           : derived_timeout(cfg.data_link, cfg.ack_link, cfg.ack_policy);
}

/// Optional core extension: the wire residue a true sequence number
/// travels under (bounded SV, threshold counters).  Environments that
/// key per-frame state by wire field (the net runtime's payload stash)
/// consult this; cores without it use unbounded wire seqnums, where the
/// mapping is the identity.
template <typename C>
inline constexpr bool kCoreWireMapped =
    requires(const C& c, Seq s) { { c.wire_seq(s) } -> std::convertible_to<Seq>; };

/// Detects cores whose block acks are residue ranges that may wrap the
/// sequence-number domain (bounded BA: ack (lo, hi) with hi < lo means
/// lo..domain-1 then 0..hi).  Struct-passing environments need not care
/// -- the sender cores consume wrapped ranges natively via residue
/// offsets -- but a wire codec cannot encode hi < lo as one frame, so
/// wire environments split the block in two at the domain edge.
template <typename C>
inline constexpr bool kCoreAckWireWrapped =
    requires(const C& c) { { c.ack_wire_domain() } -> std::convertible_to<Seq>; };

/// How an acknowledgment left the receiver -- lets environments label
/// egress without re-deriving the reason (the DES trace distinguishes
/// "ack" from "dup-ack"; counters already did).
enum class AckKind : std::uint8_t {
    Block,  // action 5 / immediate per-arrival ack
    Dup,    // BA-style duplicate re-ack (action 3)
};

/// One externally visible protocol decision, for cross-runtime parity
/// checks.  Ranges are wire values exactly as sent; seqs are true
/// sequence numbers.
struct Decision {
    enum Kind : std::uint8_t { Send, Resend, AckBlock, AckDup, Nak, Deliver };

    SimTime time = 0;
    char endpoint = '?';  // 'S' sender half, 'R' receiver half
    Kind kind = Send;
    Seq lo = 0;
    Seq hi = 0;

    friend bool operator==(const Decision&, const Decision&) = default;
};

/// Optional recorder the driver writes every decision into (nullptr =
/// zero cost).  The cross-runtime parity test attaches one to a DES run
/// and one to each net endpoint and compares the streams.
struct DecisionLog {
    std::vector<Decision> entries;

    void note(SimTime t, char endpoint, Decision::Kind kind, Seq lo, Seq hi) {
        entries.push_back(Decision{t, endpoint, kind, lo, hi});
    }
};

/// What an Environment must supply.  Checked where the adapter type is
/// complete (the driver's constructor), not at class scope, because
/// adapters embed the driver and hand themselves in while still
/// incomplete.
// clang-format off
template <typename E>
concept DriverEnvironment =
    requires(E env, const proto::Data& data, const proto::Ack& ack,
             const proto::Nak& nak, Seq seq, bool retx) {
        /// true: the environment can prove quiescence and calls
        /// oracle_fire() from an idle hook (DES).  false: the driver
        /// approximates with the quiescence timer (real time).
        { E::kHasOracle } -> std::convertible_to<bool>;
        { env.timer_service() } -> std::convertible_to<TimerService&>;
        { env.now() } -> std::convertible_to<SimTime>;
        /// Egress: put the frame on the wire (trace + SimChannel::send in
        /// the DES; wire::codec + batch staging in the net runtime).
        env.send_data(data, seq, retx);
        env.send_ack(ack, AckKind::Block);
        env.send_nak(nak);
        /// One in-order delivery of \p seq (payload handoff/verification
        /// in the net runtime; no-op in the DES).
        env.on_delivery(seq);
        /// After every completed protocol step (arrival or ack flush) --
        /// the DES invariant-check hook; no-op in the net runtime.
        env.after_step();
        /// The latency sink the driver records into.  The environment
        /// owns it, so a host running many sessions (a server shard, a
        /// client fleet) keeps one sink, not one per session.
        { env.latency() } -> std::same_as<sim::LatencyHistograms&>;
    };
// clang-format on

template <EndpointCore Core, typename Env>
class EndpointDriver {
public:
    using Options = typename Core::Options;

    static constexpr bool kTimeGatedSend = kCoreTimeGatedSend<Core>;
    static constexpr bool kGatedResend = kCoreGatedResend<Core>;
    static constexpr bool kHandlesNak = kCoreHandlesNak<Core>;

    /// \p env must outlive the driver; adapters embed the driver and
    /// pass *this.
    EndpointDriver(const EngineConfig& cfg, Options options, Env& env)
        : cfg_(cfg),
          mode_(cfg.timeout_mode.value_or(Core::kDefaultTimeoutMode)),
          env_(env),
          core_(cfg_, std::move(options)),
          rng_arrivals_(mix_seed(cfg_.seed, 0xa7)),
          ack_flush_timer_(env.timer_service(), [this] { flush_ack(); }),
          simple_timer_(env.timer_service(), [this] { on_simple_timeout(); }),
          blocked_timer_(env.timer_service(), [this] { pump_send(); }),
          quiescence_timer_(env.timer_service(), [this] { on_quiescence(); }),
          arrival_timer_(env.timer_service(), [this] { on_arrival_tick(); }) {
        static_assert(DriverEnvironment<Env>);
        timeout_ = effective_timeout(cfg_);
        data_lifetime_ = cfg_.data_link.max_lifetime();
        // Pre-size the candidate scratch so the steady-state loop never
        // touches the allocator (the send records: see start()).
        seq_scratch_.reserve(cfg_.w + 1);
    }

    EndpointDriver(const EndpointDriver&) = delete;
    EndpointDriver& operator=(const EndpointDriver&) = delete;

    ~EndpointDriver() {
        // Per-message expiries are raw TimerService timers (the OneShot
        // members cancel themselves); reclaim them so no closure on the
        // service can fire into a dead driver.
        ring_.for_each([this](const SendRecord& r) {
            if (r.timer != kInvalidTimer) env_.timer_service().cancel(r.timer);
        });
    }

    /// Opens the faucet: stamps the start time, releases the workload
    /// (all upfront, or via the open-loop arrival process), and pumps the
    /// first window.  Call once, from the sending endpoint.
    void start() {
        // Size the send records by the window, whatever the count.  Here,
        // not in the constructor: only a sending driver starts, so a
        // receiving half keeps none.
        if (ring_.capacity() == 0) ring_.grow(send_span());
        if (cfg_.arrival_interval > 0) {
            release_times_.resize(std::bit_ceil(static_cast<std::size_t>(cfg_.w)));
        }
        metrics_.start_time = env_.now();
        if (cfg_.app_arrivals) {
            // Nothing to release yet: the application feeds messages in
            // through release() as it queues their payloads.
        } else if (cfg_.arrival_interval > 0) {
            app_released_ = 0;
            schedule_arrival();
        } else {
            app_released_ = cfg_.count;
        }
        pump_send();
    }

    /// Releases \p n more messages into the window (app_arrivals mode):
    /// the application has queued their payloads, so the environment's
    /// payload source can now serve them.  Clamped to `count`; pumps
    /// immediately, so frames may egress from inside this call.
    void release(Seq n) {
        app_released_ = std::min<Seq>(cfg_.count, app_released_ + n);
        pump_send();
    }

    // ---- ingress (the environment decodes, then forwards) -----------------

    void handle_ack(const proto::Ack& ack) {
        ++metrics_.acks_received;
        core_.on_ack(ack, txview());
        // Sender-observed latency: sweep the retirement cursor over
        // messages this ack (cumulatively) settled.  can_resend() going
        // false is the core-agnostic "acknowledged" signal (the same one
        // per-message timers consult), and the cursor makes the sweep
        // O(newly acked) amortized.
        while (ack_cursor_ < sent_new_ && !core_.can_resend(ack_cursor_)) {
            SendRecord& rec = record(ack_cursor_);
            env_.latency().ack.add(env_.now() - rec.first_tx);
            // Reclaim the retired message's expiry timer now instead of
            // letting it fire as a no-op: lazy cancellation would keep
            // one live timer per message sent within a timeout window,
            // and the heap's high-water mark with it, unbounded by w.
            if (rec.timer != kInvalidTimer) {
                env_.timer_service().cancel(rec.timer);
                rec.timer = kInvalidTimer;
            }
            ++ack_cursor_;
        }
        if (mode_ == TimeoutMode::SimpleTimer && !core_.has_outstanding()) {
            simple_timer_.cancel();
        }
        pump_send();
        if constexpr (kGatedResend) {
            // SIV's speed advantage: an arriving ack can unblock the
            // resend gate for already-matured messages; they go out
            // immediately, with no timeout period between successive
            // resends (paper SIV).
            if (mode_ == TimeoutMode::PerMessageTimer) rescan_matured();
        }
        if constexpr (!Env::kHasOracle) touch_quiescence();
        env_.after_step();
    }

    void handle_nak(const proto::Nak& nak) {
        ++metrics_.naks_received;
        if constexpr (kHandlesNak) {
            const std::optional<Seq> target = core_.on_nak(nak, txview());
            if (!target) return;
            ++metrics_.fast_retx;
            transmit(core_.resend(*target, env_.now()), *target, /*retx=*/true);
        } else if constexpr (Env::kHasOracle) {
            // The DES world is closed: a NAK can only reach a core that
            // produced one, so this is a wiring bug.
            BACP_ASSERT_MSG(false, "NAK received by a core without NAK support");
        }
        // On a real network a stray NAK may be a duplicate from an
        // earlier impairment; cores without NAK support ignore it.
    }

    /// Returns RxOutcome::buffered: whether the core now holds the arrival
    /// beyond a gap, so a wire environment must keep its payload.
    bool handle_data(const proto::Data& msg) {
        ++metrics_.data_received;
        const RxOutcome out = core_.on_data(msg, env_.now());
        if (out.rejected) {
            // Semantically impossible arrival (e.g. seq beyond nr + w): a
            // CRC-valid-but-corrupted frame, or a peer speaking a
            // different configuration.  Counted with the decode errors
            // and otherwise treated as loss -- the timers recover.
            ++metrics_.decode_errors;
            env_.after_step();
            return false;
        }
        if (out.dup_ack) {
            ++metrics_.duplicates;
            ++metrics_.dup_acks;
            log(Decision::AckDup, 'R', out.dup_ack->lo, out.dup_ack->hi);
            env_.send_ack(*out.dup_ack, AckKind::Dup);
            env_.after_step();
            return false;
        }
        if (out.duplicate) ++metrics_.duplicates;
        for (Seq k = 0; k < out.delivered; ++k) note_delivery();
        if (out.immediate_ack) {
            ++metrics_.acks_sent;
            log(Decision::AckBlock, 'R', out.immediate_ack->lo, out.immediate_ack->hi);
            env_.send_ack(*out.immediate_ack, AckKind::Block);
        }
        if (out.nak) {
            ++metrics_.naks_sent;
            log(Decision::Nak, 'R', out.nak->seq, out.nak->seq);
            env_.send_nak(*out.nak);
        }
        // Action 5 scheduling per the ack policy.
        const Seq pending = core_.ack_pending();
        if (pending >= cfg_.ack_policy.threshold) {
            flush_ack();
        } else if (pending > 0 && !ack_flush_timer_.armed()) {
            ack_flush_timer_.restart(cfg_.ack_policy.flush_delay);
        }
        env_.after_step();
        return out.buffered;
    }

    // ---- oracle hook (environments with provable quiescence) ---------------

    /// Fires the oracle timeout disciplines at a proven idle point.  The
    /// environment is responsible for the proof (the DES asserts both
    /// channels empty before calling).  Returns whether anything was
    /// resent (i.e. the idle point produced new work).
    bool oracle_fire()
        requires(Env::kHasOracle)
    {
        if (!core_.has_outstanding()) return false;
        // At an idle point the channels are provably empty (the *SR/*RS
        // conjuncts of the guards hold trivially), but the receiver may
        // hold out-of-order messages it cannot acknowledge yet -- the
        // "(i < nr || !rcvd[i])" conjunct must still be consulted.
        if (mode_ == TimeoutMode::OracleSimple) {
            // Paper SII guard: na != ns, channels empty, !rcvd[nr].  At an
            // idle point an eager/flushed receiver has nr == vr and
            // !rcvd[vr], so the remaining conjuncts hold automatically.
            resend_simple_set();
            return true;
        }
        bool any = false;
        seq_scratch_.clear();
        core_.resend_candidates(seq_scratch_);
        for (const Seq true_seq : seq_scratch_) {
            if constexpr (kGatedResend) {
                if (core_.timeout_eligible(true_seq, /*oracle=*/true) == false) continue;
            }
            transmit(core_.resend(true_seq, env_.now()), true_seq, /*retx=*/true);
            any = true;
        }
        // na always passes the guard (na < nr, or na == nr with !rcvd[nr]
        // at idle), so progress is guaranteed.
        BACP_ASSERT_MSG(any, "oracle timeout found no eligible candidate");
        return true;
    }

    // ---- chaos hooks (src/chaos fault injection) ---------------------------

    /// Applies one seeded corruption to the core's protocol state and
    /// then re-arms the timer discipline over the corrupted state -- a
    /// power-cycled peer restarts its timers too, so recovery must not
    /// depend on timers armed before the fault.  Returns the core's
    /// description of what was corrupted ("" = state offered nothing).
    std::string chaos_corrupt_state(Rng& rng)
        requires kCoreCorruptible<Core>
    {
        const std::string what = core_.corrupt_state(rng);
        if (!what.empty()) chaos_rearm();
        return what;
    }

    /// Scrambles the timer sets without touching protocol state: every
    /// live per-message expiry is cancelled and re-armed at a uniformly
    /// random fraction of the timeout, and the single/quiescence timers
    /// are similarly perturbed.  Early fires re-arm instead of resending
    /// (the one-copy maturity rule still gates the wire), so scrambling
    /// costs spurious wakeups, never a silently dropped retransmission.
    /// Returns the number of timers perturbed.
    std::size_t chaos_scramble_timers(Rng& rng) {
        std::size_t scrambled = 0;
        if (mode_ == TimeoutMode::PerMessageTimer) {
            seq_scratch_.clear();
            core_.resend_candidates(seq_scratch_);
            for (const Seq true_seq : seq_scratch_) {
                SendRecord& rec = record(true_seq);
                if (rec.timer != kInvalidTimer) env_.timer_service().cancel(rec.timer);
                const SimTime delay = chaos_delay(rng);
                rec.timer = env_.timer_service().schedule_after(delay, [this, true_seq] {
                    forget_timer(true_seq);
                    chaos_premature_fire(true_seq);
                });
                ++scrambled;
            }
        }
        if (simple_timer_.armed()) {
            simple_timer_.restart(chaos_delay(rng));
            ++scrambled;
        }
        if (quiescence_timer_.armed()) {
            quiescence_timer_.restart(chaos_delay(rng));
            ++scrambled;
        }
        return scrambled;
    }

    // ---- observers ---------------------------------------------------------

    /// Every message handed over and acknowledged (the sending half's
    /// completion condition).
    bool all_sent_and_acked() const {
        return sent_new_ == cfg_.count && !core_.has_outstanding();
    }

    /// Full-session completion: both halves done (meaningful when one
    /// driver runs both, i.e. the DES).
    bool completed() const {
        return all_sent_and_acked() && delivered_ == cfg_.count;
    }

    Seq delivered() const { return delivered_; }
    Seq sent_new() const { return sent_new_; }
    SimTime timeout_value() const { return timeout_; }
    TimeoutMode mode() const { return mode_; }
    const Core& core() const { return core_; }
    const sim::Metrics& metrics() const { return metrics_; }
    /// Environments own the non-protocol counters (channel drops, decode
    /// errors) and the report's time stamps; they write them here.
    sim::Metrics& metrics_mut() { return metrics_; }

    /// Attach (or detach, with nullptr) a decision recorder.
    void set_decision_log(DecisionLog* log) { log_ = log; }

private:
    TxView txview() const { return {env_.now(), data_lifetime_, &ring_}; }

    /// The record of a message the core may still resend or whose ack
    /// has not been swept: always present (open_record never overwrites
    /// one).
    SendRecord& record(Seq true_seq) {
        SendRecord* rec = ring_.find(true_seq);
        BACP_ASSERT_MSG(rec != nullptr, "live message without a send record");
        return *rec;
    }

    /// A fired per-message timer is no longer live.
    void forget_timer(Seq true_seq) {
        if (SendRecord* rec = ring_.find(true_seq)) rec->timer = kInvalidTimer;
    }

    void log(Decision::Kind kind, char endpoint, Seq lo, Seq hi) {
        if (log_ != nullptr) log_->note(env_.now(), endpoint, kind, lo, hi);
    }

    // ---- sender half -------------------------------------------------------

    /// Open-loop arrival process: releases one message per interval.
    void schedule_arrival() {
        if (app_released_ >= cfg_.count) return;
        const SimTime gap =
            cfg_.poisson_arrivals
                ? static_cast<SimTime>(
                      rng_arrivals_.exponential(static_cast<double>(cfg_.arrival_interval)))
                : cfg_.arrival_interval;
        arrival_timer_.restart(gap);
    }

    /// Release k's time waits at k mod size until message k is first
    /// sent, so the live entries are [sent_new_, app_released_); the ring
    /// doubles only when that backlog fills it.
    void on_arrival_tick() {
        if (app_released_ - sent_new_ == release_times_.size()) {
            std::vector<SimTime> grown(2 * release_times_.size());
            for (Seq k = sent_new_; k < app_released_; ++k) {
                grown[k & (grown.size() - 1)] = release_times_[k & (release_times_.size() - 1)];
            }
            release_times_.swap(grown);
        }
        release_times_[app_released_ & (release_times_.size() - 1)] = env_.now();
        ++app_released_;
        pump_send();
        schedule_arrival();
    }

    void pump_send() {
        while (sent_new_ < cfg_.count && sent_new_ < app_released_ && core_.can_send_new()) {
            if constexpr (kTimeGatedSend) {
                // One now() snapshot for the whole decision: under a real
                // clock, time advances between reads, and a deadline that
                // tested as future against the first read can be past by
                // the next -- handing the timer wheel a negative delay.
                const SimTime now = env_.now();
                const SimTime ready = core_.send_blocked_until(now);
                if (ready > now) {
                    if (!blocked_timer_.armed()) blocked_timer_.restart(ready - now);
                    return;
                }
            }
            const proto::Data msg = core_.send_new(env_.now());
            const Seq true_seq = sent_new_++;
            open_record(true_seq);
            transmit(msg, true_seq, /*retx=*/false);
        }
    }

    /// The span the core can have outstanding (ns - na): w, or a
    /// hole-reusing sender's wider bookkeeping window.
    std::size_t send_span() const {
        if constexpr (kCoreSendSpan<Core>) {
            return core_.send_span();
        } else {
            return cfg_.w;
        }
    }

    /// A record still needed: its ack not yet swept, or resendable.
    bool live(const SendRecord& r) const {
        return r.seq != SendRecord::kNoSeq && (r.seq >= ack_cursor_ || core_.can_resend(r.seq));
    }

    /// Takes the ring slot of a newly sent message.  The slot's previous
    /// record (one capacity back) is overwritten only once it is dead; a
    /// live one means the core outran the span the ring was sized for,
    /// and the ring grows instead (as does an empty ring: messages
    /// released before start()).  A dead record can still hold the
    /// expiry of a message a chaos fault revived and re-acked; that
    /// timer's fire would be a no-op (can_resend is false), so it is
    /// cancelled here.
    void open_record(Seq true_seq) {
        while (ring_.capacity() == 0 || live(ring_.slot(true_seq))) ring_.grow(send_span());
        SendRecord& slot = ring_.slot(true_seq);
        if (slot.timer != kInvalidTimer) env_.timer_service().cancel(slot.timer);
        const SimTime now = env_.now();
        const SimTime origin = cfg_.arrival_interval > 0
                                   ? release_times_[true_seq & (release_times_.size() - 1)]
                                   : now;
        slot = SendRecord{true_seq, now, now, origin, kInvalidTimer};
    }

    void transmit(const proto::Data& msg, Seq true_seq, bool retx) {
        if (retx) {
            ++metrics_.data_retx;
        } else {
            ++metrics_.data_new;
        }
        log(retx ? Decision::Resend : Decision::Send, 'S', true_seq, true_seq);
        record(true_seq).last_tx = env_.now();
        env_.send_data(msg, true_seq, retx);
        switch (mode_) {
            case TimeoutMode::SimpleTimer:
                simple_timer_.restart(timeout_);
                break;
            case TimeoutMode::PerMessageTimer:
                schedule_per_message(true_seq);
                break;
            default:
                // Oracle modes: the DES idle hook fires them; real time
                // watches for silence instead.
                if constexpr (!Env::kHasOracle) touch_quiescence();
                break;
        }
    }

    /// Per-message expiry timer.  The newest copy owns the seq's timer:
    /// rescheduling cancels the previous one (whose fire was a provable
    /// no-op anyway -- matured() fails while a newer copy is fresh), and
    /// the id lives in the send record, so the destructor reclaims every
    /// live closure.
    void schedule_per_message(Seq true_seq) {
        SendRecord& rec = record(true_seq);
        if (rec.timer != kInvalidTimer) env_.timer_service().cancel(rec.timer);
        rec.timer = env_.timer_service().schedule_after(timeout_, [this, true_seq] {
            forget_timer(true_seq);
            per_message_fire(true_seq);
        });
    }

    void on_simple_timeout() {
        if (!core_.has_outstanding()) return;
        resend_simple_set();
    }

    void resend_simple_set() {
        seq_scratch_.clear();
        core_.simple_timeout_set(seq_scratch_);
        for (const Seq true_seq : seq_scratch_) {
            transmit(core_.resend(true_seq, env_.now()), true_seq, /*retx=*/true);
        }
    }

    /// The realistic per-message expiry test: the last copy was sent a
    /// full timeout ago.
    bool matured(Seq true_seq) const {
        const SendRecord* rec = ring_.find(true_seq);
        return rec != nullptr && env_.now() - rec->last_tx >= timeout_;
    }

    void per_message_fire(Seq true_seq) {
        if (!core_.can_resend(true_seq)) return;  // acknowledged meanwhile
        if (!matured(true_seq)) return;           // a newer copy owns the timer
        if constexpr (kGatedResend) {
            if (!core_.timeout_eligible(true_seq, /*oracle=*/false)) {
                gate_waiters_ = true;  // reconsidered on next ack
                return;
            }
        }
        transmit(core_.resend(true_seq, env_.now()), true_seq, /*retx=*/true);
    }

    /// Resends every matured message the SIV gate now admits.  A message
    /// only reaches "matured but gate-blocked" through per_message_fire
    /// (its newest copy's timer fires exactly at maturity), which sets
    /// gate_waiters_; when no fire has been blocked since the last scan
    /// came up dry there is nothing to reconsider, and the per-ack
    /// O(window) candidate scan is skipped -- the common case on healthy
    /// links, where this runs on every single ack.
    void rescan_matured() {
        if (!gate_waiters_) return;
        bool still_blocked = false;
        seq_scratch_.clear();
        core_.resend_candidates(seq_scratch_);
        for (const Seq true_seq : seq_scratch_) {
            if (!matured(true_seq)) continue;
            if constexpr (kGatedResend) {
                if (!core_.timeout_eligible(true_seq, /*oracle=*/false)) {
                    still_blocked = true;
                    continue;
                }
            }
            transmit(core_.resend(true_seq, env_.now()), true_seq, /*retx=*/true);
        }
        gate_waiters_ = still_blocked;
    }

    // ---- chaos internals ---------------------------------------------------

    SimTime chaos_delay(Rng& rng) {
        return static_cast<SimTime>(rng.uniform(static_cast<std::uint64_t>(timeout_) + 1));
    }

    /// Post-corruption timer discipline: every resend candidate the
    /// corrupted state now exposes gets an expiry (forgotten acks revive
    /// seqs whose timers were reclaimed on acknowledgment), and a
    /// receiver with a regressed nr gets its re-ack flushed on the usual
    /// policy delay instead of waiting for the next arrival.
    void chaos_rearm() {
        if (mode_ == TimeoutMode::PerMessageTimer) {
            seq_scratch_.clear();
            core_.resend_candidates(seq_scratch_);
            for (const Seq true_seq : seq_scratch_) {
                if (record(true_seq).timer == kInvalidTimer) schedule_per_message(true_seq);
            }
        } else if (mode_ == TimeoutMode::SimpleTimer) {
            if (core_.has_outstanding() && !simple_timer_.armed()) {
                simple_timer_.restart(timeout_);
            }
        } else {
            if constexpr (!Env::kHasOracle) touch_quiescence();
        }
        if (core_.ack_pending() > 0 && !ack_flush_timer_.armed()) {
            ack_flush_timer_.restart(cfg_.ack_policy.flush_delay);
        }
        // The ack-latency sweep must not stall on seqs the corruption
        // re-opened: the cursor only ever moves forward, so clamp it past
        // nothing -- but the sweep condition consults can_resend, which a
        // revived seq now satisfies.  Re-sweeping later acks would
        // double-count latency samples, so leave the cursor where it is;
        // revived seqs simply record no second latency sample.
        pump_send();
    }

    /// Fire path for scrambled timers: an early fire (the copy has not
    /// matured) re-arms for the normal expiry instead of falling through
    /// per_message_fire's maturity check, which would silently drop the
    /// seq's timer forever.
    void chaos_premature_fire(Seq true_seq) {
        if (!core_.can_resend(true_seq)) return;
        if (!matured(true_seq)) {
            schedule_per_message(true_seq);
            return;
        }
        per_message_fire(true_seq);
    }

    // ---- quiescence approximation (environments without an oracle) ---------

    /// Oracle-mode activity notification: while anything is outstanding,
    /// (re)arm the quiescence timer; a full timeout of silence stands in
    /// for the provable idle point.
    void touch_quiescence() {
        if (mode_ != TimeoutMode::OracleSimple && mode_ != TimeoutMode::OraclePerMessage) {
            return;
        }
        if (core_.has_outstanding()) {
            quiescence_timer_.restart(timeout_);
        } else {
            quiescence_timer_.cancel();
        }
    }

    void on_quiescence() {
        if (!core_.has_outstanding()) return;
        if (mode_ == TimeoutMode::OracleSimple) {
            resend_simple_set();
            return;  // transmit re-armed the timer via touch_quiescence
        }
        bool any = false;
        seq_scratch_.clear();
        core_.resend_candidates(seq_scratch_);
        for (const Seq true_seq : seq_scratch_) {
            if constexpr (kGatedResend) {
                // oracle=true consults the receiver half of *this* core,
                // which is empty at the sending endpoint, so the gate
                // reduces to the sender-side conjuncts -- conservative in
                // the safe direction (never blocks a needed resend).
                if (!core_.timeout_eligible(true_seq, /*oracle=*/true)) continue;
            }
            transmit(core_.resend(true_seq, env_.now()), true_seq, /*retx=*/true);
            any = true;
        }
        if (!any) quiescence_timer_.restart(timeout_);  // keep watching
    }

    // ---- receiver half -----------------------------------------------------

    void note_delivery() {
        const Seq true_seq = delivered_++;
        ++metrics_.delivered;
        env_.on_delivery(true_seq);
        log(Decision::Deliver, 'R', true_seq, true_seq);
        // Open loop measures arrival-to-delivery sojourn; closed loop
        // measures first-transmission-to-delivery.  An environment that
        // only runs the receiving half has no send records and records
        // no latency (its clock is not the sender's).
        if (const SendRecord* rec = ring_.find(true_seq)) {
            env_.latency().delivery.add(env_.now() - rec->origin);
        }
        if (delivered_ == cfg_.count) metrics_.end_time = env_.now();
    }

    void flush_ack() {
        ack_flush_timer_.cancel();
        if (core_.ack_pending() == 0) return;
        const proto::Ack ack = core_.make_ack();
        ++metrics_.acks_sent;
        log(Decision::AckBlock, 'R', ack.lo, ack.hi);
        env_.send_ack(ack, AckKind::Block);
        env_.after_step();
    }

    EngineConfig cfg_;
    TimeoutMode mode_;
    Env& env_;
    Core core_;
    Rng rng_arrivals_;
    OneShotTimer ack_flush_timer_;
    OneShotTimer simple_timer_;
    OneShotTimer blocked_timer_;     // wakes the pump when a send gate clears
    OneShotTimer quiescence_timer_;  // !kHasOracle oracle-mode approximation
    OneShotTimer arrival_timer_;     // open-loop workload ticks
    sim::Metrics metrics_;

    SimTime timeout_ = 0;
    SimTime data_lifetime_ = 0;  // cached cfg_.data_link.max_lifetime()
    bool gate_waiters_ = false;  // a per-message fire was gate-blocked
    Seq sent_new_ = 0;      // new messages handed to the wire (== true ns)
    Seq ack_cursor_ = 0;    // messages retired by acks (latency sweep)
    Seq delivered_ = 0;     // in-order deliveries at the receiver (== true vr)
    Seq app_released_ = 0;  // open loop: messages made available so far
    SendRing ring_;                      // per-message records, true seq mod capacity
    std::vector<SimTime> release_times_; // open loop: release k at k mod size
    std::vector<Seq> seq_scratch_;       // candidate sets, reused per timeout/ack
    DecisionLog* log_ = nullptr;
};

}  // namespace bacp::runtime
