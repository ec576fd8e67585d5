#pragma once

/// \file duplex_driver.hpp
/// Two EndpointDriver halves composed into one full-duplex endpoint.
///
/// The paper's protocol is one-way, but every deployment of it is
/// duplex: each end of a session both sources and sinks data over the
/// same socket.  DuplexDriver<Core, Env> owns a sender-side and a
/// receiver-side EndpointDriver sharing one environment -- one clock,
/// one TimerService, one egress -- and adds the single piece of policy
/// that only exists when both directions share a wire: *ack deferral*.
/// When piggybacking is enabled, acks produced by the receiving half are
/// queued instead of sent; the next reverse DATA carries the oldest
/// pending block as a DATA+ACK frame (wire type 4), and a flush timer
/// bounds the deferral so a quiet reverse path still acks within
/// piggyback_delay.  E13 measured the DES-side win of exactly this
/// policy; this class brings it to any DriverEnvironment, including the
/// real network (net::NetEndpoint).
///
/// Invariants preserved:
///  - Decision streams are deferral-invariant.  The inner drivers log
///    AckBlock/AckDup *before* egress, so a deferred ack appears in the
///    decision log at the moment the protocol decided it, and the
///    cross-runtime parity tests keep holding with piggybacking on.
///  - The conservative derived timeout grows by piggyback_delay on both
///    halves (both endpoints of a session must agree on the piggyback
///    configuration, exactly as they must agree on w and the ack
///    policy), so assertion 8's one-copy-in-transit bound survives the
///    deferral window.
///  - Wrapped block acks (bounded BA residue ranges with hi < lo) are
///    split at the domain edge before piggybacking: one DATA frame
///    carries one contiguous wire range; the remainder stays queued.
///
/// With piggyback off the class is a transparent composition: every ack
/// egresses immediately and a one-way configuration (rx_count or count
/// of zero) behaves byte-identically to a bare EndpointDriver, which is
/// what lets net::NetEndpoint replace the old NetSender/NetReceiver
/// pair without disturbing the pinned decision parity.
///
/// Receive batches (begin_batch / end_batch): a host that feeds several
/// frames from one receive batch brackets them, and while the bracket
/// is open a standalone block ack is held, and a later block that
/// starts where the held one ends (lo == hi + 1) extends it instead of
/// leaving as a frame of its own -- the paper leaves the moment of
/// action 5 free.  Only cumulative cores (Core::kCumulativeAcks: ba,
/// gbn, abp, tc) merge, and only unwrapped blocks; selective repeat's
/// acks name single arrivals and pass through untouched.  At most one
/// block is held: a non-contiguous ack, a dup-ack, a NAK or outgoing
/// DATA emits it first, so wire order is kept, and end_batch() emits
/// it.  Acks bound for the piggyback queue are not merged: each waits
/// for its own reverse DATA frame or the flush timer.  The inner
/// drivers still log and count every AckBlock decision, so decision
/// streams and acks_sent do not see the merge; acks_coalesced() counts
/// the blocks it absorbed.  The DES never opens a batch.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/timer_service.hpp"
#include "common/types.hpp"
#include "protocol/message.hpp"
#include "runtime/endpoint_core.hpp"
#include "runtime/endpoint_driver.hpp"
#include "sim/metrics.hpp"

namespace bacp::runtime {

/// The duplex knobs layered on top of a (per-direction) EngineConfig.
struct DuplexSpec {
    /// Messages the *peer* will send us (our receiving half's count).
    /// The EngineConfig's own count stays "messages we originate".
    Seq rx_count = 0;
    /// Defer acks so reverse DATA can carry them (DATA+ACK frames).
    bool piggyback = false;
    /// Upper bound on ack deferral: a flush timer emits everything still
    /// pending as standalone acks this long after the first deferral.
    SimTime piggyback_delay = 2 * kMillisecond;
};

/// What a duplex environment must supply: everything DriverEnvironment
/// does, plus the combined DATA+ACK egress.  send_data_ack only ever
/// receives a contiguous (lo <= hi) wire range -- the driver splits
/// wrapped bounded-BA blocks at the domain edge before piggybacking.
// clang-format off
template <typename E>
concept DuplexDriverEnvironment =
    requires(E env, const proto::Data& data, const proto::Ack& ack,
             const proto::Nak& nak, Seq seq, bool retx, AckKind kind) {
        { E::kHasOracle } -> std::convertible_to<bool>;
        { env.timer_service() } -> std::convertible_to<TimerService&>;
        { env.now() } -> std::convertible_to<SimTime>;
        env.send_data(data, seq, retx);
        env.send_data_ack(data, seq, retx, ack, kind);
        env.send_ack(ack, kind);
        env.send_nak(nak);
        env.on_delivery(seq);
        env.after_step();
        { env.latency() } -> std::same_as<sim::LatencyHistograms&>;
    };
// clang-format on

template <EndpointCore Core, typename Env>
class DuplexDriver {
    struct TxHalf;
    struct RxHalf;

public:
    using Options = typename Core::Options;
    using TxDriver = EndpointDriver<Core, TxHalf>;
    using RxDriver = EndpointDriver<Core, RxHalf>;

    /// \p cfg.count is the message count this endpoint originates;
    /// \p spec.rx_count the count it expects to sink.  Either may be
    /// zero, giving the classic one-way configurations.
    DuplexDriver(const EngineConfig& cfg, DuplexSpec spec, Options options, Env& env)
        : env_(env),
          piggyback_(spec.piggyback),
          piggyback_delay_(spec.piggyback_delay),
          rx_count_(spec.rx_count),
          flush_timer_(env.timer_service(), [this] { flush_deferred(); }),
          driver_tx_(with_piggyback_timeout(cfg, spec), options, tx_env_),
          driver_rx_(rx_config(cfg, spec), options, rx_env_) {
        static_assert(DuplexDriverEnvironment<Env>);
        if (piggyback_) pending_.reserve(2 * static_cast<std::size_t>(cfg.w) + 8);
    }

    DuplexDriver(const DuplexDriver&) = delete;
    DuplexDriver& operator=(const DuplexDriver&) = delete;

    /// Kick the sending half (no-op protocol-wise when count == 0, but
    /// callers gate on count anyway to keep start symmetric with the
    /// one-way drivers).
    void start() { driver_tx_.start(); }

    /// Forwards an application-gated release (EngineConfig::app_arrivals)
    /// to the sending half.
    void release(Seq n) { driver_tx_.release(n); }

    // ---- ingress -----------------------------------------------------

    void handle_ack(const proto::Ack& ack) { driver_tx_.handle_ack(ack); }
    void handle_nak(const proto::Nak& nak) { driver_tx_.handle_nak(nak); }
    /// Both data paths return whether the receiving core buffered the
    /// arrival (EndpointDriver::handle_data).
    bool handle_data(const proto::Data& msg) { return driver_rx_.handle_data(msg); }

    /// A piggybacked frame: the ack half feeds our sending driver first
    /// (freeing window before the data half may trigger an ack of our
    /// own), then the data half feeds the receiving driver.
    bool handle_data_ack(const proto::Data& msg, const proto::Ack& ack) {
        driver_tx_.handle_ack(ack);
        return driver_rx_.handle_data(msg);
    }

    /// DES idle hook for the oracle timeout modes; fires whichever half
    /// has outstanding work (the receiving half's sender core never
    /// does, so in practice this is the tx half plus a cheap no-op).
    bool oracle_fire()
        requires(Env::kHasOracle)
    {
        const bool tx_fired = driver_tx_.oracle_fire();
        const bool rx_fired = driver_rx_.oracle_fire();
        return tx_fired || rx_fired;
    }

    // ---- observers ---------------------------------------------------

    bool tx_done() const { return driver_tx_.all_sent_and_acked(); }
    bool rx_done() const { return driver_rx_.delivered() >= rx_count_; }
    bool done() const { return tx_done() && rx_done(); }

    Seq delivered() const { return driver_rx_.delivered(); }
    Seq sent_new() const { return driver_tx_.sent_new(); }
    SimTime timeout_value() const { return driver_tx_.timeout_value(); }

    /// Acks that rode a reverse DATA frame vs. egressed standalone, ack
    /// blocks merged into an earlier block of the same receive batch,
    /// and blocks not yet egressed (queued or held).  For cores with
    /// unwrapped acks the four sum to acks_sent + dup_acks of the
    /// receiving half at every step.
    std::uint64_t piggybacked() const { return piggybacked_; }
    std::uint64_t standalone_acks() const { return standalone_acks_; }
    std::uint64_t acks_coalesced() const { return coalesced_; }
    std::uint64_t acks_deferred() const { return pending_.size() - head_ + (holding_ ? 1 : 0); }

    const sim::Metrics& tx_metrics() const { return driver_tx_.metrics(); }
    const sim::Metrics& rx_metrics() const { return driver_rx_.metrics(); }
    sim::Metrics& tx_metrics_mut() { return driver_tx_.metrics_mut(); }
    sim::Metrics& rx_metrics_mut() { return driver_rx_.metrics_mut(); }

    const Core& tx_core() const { return driver_tx_.core(); }
    const Core& rx_core() const { return driver_rx_.core(); }

    TxDriver& tx_driver() { return driver_tx_; }
    RxDriver& rx_driver() { return driver_rx_; }

    /// Both halves share one log; the inner drivers stamp 'S' / 'R'
    /// endpoint chars so the streams stay separable.
    void set_decision_log(DecisionLog* log) {
        driver_tx_.set_decision_log(log);
        driver_rx_.set_decision_log(log);
    }

    /// Opens a receive batch: the frames fed until end_batch() came from
    /// one receive batch of the host.
    void begin_batch() { batch_open_ = true; }
    bool batch_open() const { return batch_open_; }

    /// Closes the receive batch and emits the block held across it.
    /// Deferred (piggyback) acks stay queued for reverse DATA as before.
    void end_batch() {
        batch_open_ = false;
        emit_held();
    }

    /// Emits every still-deferred ack standalone, immediately.  The
    /// flush timer calls this when the reverse path stays quiet for a
    /// full piggyback_delay; environments may also call it directly to
    /// drain the queue at a shutdown or teardown boundary.
    void flush_deferred() {
        emit_held();
        drain_queue();
    }

private:
    // The inner environment shims.  Each half sees a plain
    // DriverEnvironment; the duplex policy lives entirely in the
    // egress_* handlers they forward into.
    struct TxHalf {
        static constexpr bool kHasOracle = Env::kHasOracle;
        DuplexDriver* self;

        TimerService& timer_service() { return self->env_.timer_service(); }
        SimTime now() const { return self->env_.now(); }
        void send_data(const proto::Data& msg, Seq true_seq, bool retx) {
            self->egress_data(msg, true_seq, retx);
        }
        void send_ack(const proto::Ack&, AckKind) {
            BACP_ASSERT_MSG(false, "sending half produced an ack");
        }
        void send_nak(const proto::Nak&) {
            BACP_ASSERT_MSG(false, "sending half produced a nak");
        }
        void on_delivery(Seq) { BACP_ASSERT_MSG(false, "sending half delivered data"); }
        void after_step() { self->env_.after_step(); }
        sim::LatencyHistograms& latency() { return self->env_.latency(); }
    };

    struct RxHalf {
        static constexpr bool kHasOracle = Env::kHasOracle;
        DuplexDriver* self;

        TimerService& timer_service() { return self->env_.timer_service(); }
        SimTime now() const { return self->env_.now(); }
        void send_data(const proto::Data&, Seq, bool) {
            BACP_ASSERT_MSG(false, "receiving half transmitted data");
        }
        void send_ack(const proto::Ack& ack, AckKind kind) { self->egress_ack(ack, kind); }
        void send_nak(const proto::Nak& nak) {
            self->emit_held();
            self->env_.send_nak(nak);
        }
        void on_delivery(Seq true_seq) { self->env_.on_delivery(true_seq); }
        void after_step() { self->env_.after_step(); }
        sim::LatencyHistograms& latency() { return self->env_.latency(); }
    };

    /// Deferral widens the window between an ack's protocol decision and
    /// its egress, so the peer's conservative timeout must widen too.
    /// Folded into *our* derived timeout symmetrically: both endpoints
    /// of a session run the same DuplexSpec, so each side's bound covers
    /// the other's deferral.
    static EngineConfig with_piggyback_timeout(EngineConfig cfg, const DuplexSpec& spec) {
        if (spec.piggyback && cfg.timeout == 0)
            cfg.timeout = derived_timeout(cfg.data_link, cfg.ack_link, cfg.ack_policy) +
                          spec.piggyback_delay;
        return cfg;
    }

    static EngineConfig rx_config(EngineConfig cfg, const DuplexSpec& spec) {
        cfg = with_piggyback_timeout(cfg, spec);
        cfg.count = spec.rx_count;
        return cfg;
    }

    // ---- egress policy ----------------------------------------------

    /// Outbound DATA from the sending half: attach the oldest pending
    /// ack block if one is queued.  Wrapped bounded-BA blocks (hi < lo)
    /// ride as the upper slice (lo, domain-1); the lower slice (0, hi)
    /// stays at the head of the queue for the next frame.
    void egress_data(const proto::Data& msg, Seq true_seq, bool retx) {
        emit_held();  // the held block was decided before this DATA
        if (head_ < pending_.size()) {
            PendingAck ride = pending_[head_];
            if constexpr (kCoreAckWireWrapped<Core>) {
                if (ride.ack.lo > ride.ack.hi) {
                    pending_[head_].ack.lo = 0;
                    ride.ack.hi = driver_rx_.core().ack_wire_domain() - 1;
                    ++piggybacked_;
                    env_.send_data_ack(msg, true_seq, retx, ride.ack, ride.kind);
                    return;
                }
            }
            pop_pending();
            ++piggybacked_;
            env_.send_data_ack(msg, true_seq, retx, ride.ack, ride.kind);
            return;
        }
        env_.send_data(msg, true_seq, retx);
    }

    /// Outbound ack from the receiving half: defer when piggybacking,
    /// pass straight through otherwise (the transparent one-way path).
    /// Once the sending half has retired its whole count no DATA will
    /// ever egress again, so deferral would be pure added latency --
    /// tail acks go standalone immediately.
    ///
    /// On the standalone path inside a receive batch, a mergeable block
    /// (see coalescible()) that continues the held block extends it;
    /// otherwise it is held itself for end_batch().
    void egress_ack(const proto::Ack& ack, AckKind kind) {
        if (!piggyback_ || driver_tx_.all_sent_and_acked()) {
            drain_queue();  // keep older deferred blocks ahead of this one
            const bool mergeable = batch_open_ && coalescible(ack, kind);
            if (mergeable && holding_ && ack.lo == held_.hi + 1) {
                held_.hi = ack.hi;
                ++coalesced_;
                return;
            }
            emit_held();
            if (mergeable) {
                held_ = ack;
                holding_ = true;
                return;
            }
            ++standalone_acks_;
            env_.send_ack(ack, kind);
            return;
        }
        // A block is held only while the tail rule applied, and it is
        // older than anything queued from here on.
        emit_held();
        pending_.push_back(PendingAck{ack, kind});
        if (!flush_timer_.armed()) flush_timer_.restart(piggyback_delay_);
    }

    /// A block ack a later contiguous block may extend: cumulative cores
    /// only (merging selective acks would claim arrivals in between) and
    /// unwrapped ranges only (the merge must stay one closed interval).
    static bool coalescible(const proto::Ack& ack, AckKind kind) {
        return Core::kCumulativeAcks && kind == AckKind::Block && ack.lo <= ack.hi;
    }

    void emit_held() {
        if (!holding_) return;
        holding_ = false;
        ++standalone_acks_;
        env_.send_ack(held_, AckKind::Block);
    }

    void drain_queue() {
        if (head_ >= pending_.size()) return;
        for (std::size_t i = head_; i < pending_.size(); ++i) {
            ++standalone_acks_;
            env_.send_ack(pending_[i].ack, pending_[i].kind);
        }
        clear_queue();
    }

    void pop_pending() {
        if (++head_ == pending_.size()) clear_queue();
    }

    void clear_queue() {
        pending_.clear();
        head_ = 0;
        flush_timer_.cancel();
    }

    struct PendingAck {
        proto::Ack ack;
        AckKind kind;
    };

    Env& env_;
    bool piggyback_;
    SimTime piggyback_delay_;
    Seq rx_count_;

    // FIFO of deferred acks; head_ indexes the oldest not yet egressed
    // so pops are O(1) without shifting (cleared when drained).
    std::vector<PendingAck> pending_;
    std::size_t head_ = 0;
    std::uint64_t piggybacked_ = 0;
    std::uint64_t standalone_acks_ = 0;
    std::uint64_t coalesced_ = 0;

    // Receive-batch state: the bracket and the block held for its end.
    bool batch_open_ = false;
    bool holding_ = false;
    proto::Ack held_;

    TxHalf tx_env_{this};
    RxHalf rx_env_{this};
    OneShotTimer flush_timer_;
    TxDriver driver_tx_;
    RxDriver driver_rx_;
};

}  // namespace bacp::runtime
