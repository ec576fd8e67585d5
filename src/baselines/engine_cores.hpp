#pragma once

/// \file engine_cores.hpp
/// EndpointCore adapters for the four baseline protocols, so the
/// runtime::Engine drives them through the same transport layer as the
/// block-ack family (see runtime/engine.hpp).
///
/// Each adapter pairs the pure sender/receiver cores and exposes the
/// engine's true-sequence-number surface; residue translation (go-back-N
/// bounded mode, the time-constrained domain) happens here.  The
/// adapters declare their classic timer discipline as the default mode
/// (SimpleTimer for the single-timer baselines, PerMessageTimer for
/// selective repeat), but all four TimeoutModes work for every one of
/// them.

#include <optional>
#include <string>
#include <vector>

#include "ba/sender.hpp"
#include "baselines/alternating_bit.hpp"
#include "baselines/gobackn.hpp"
#include "baselines/selective_repeat.hpp"
#include "baselines/timer_based.hpp"
#include "common/assert.hpp"
#include "common/types.hpp"
#include "protocol/message.hpp"
#include "runtime/ack_clip.hpp"
#include "runtime/engine.hpp"

namespace bacp::baselines {

/// Alternating-bit (stop-and-wait): one message outstanding, FIFO
/// channels only.  The no-pipelining floor in the window-scaling
/// experiments.
class AbpCore {
public:
    struct Options {};

    static constexpr bool kRequiresFifo = true;  // ABP is unsafe over reorder
    static constexpr runtime::TimeoutMode kDefaultTimeoutMode =
        runtime::TimeoutMode::SimpleTimer;
    static constexpr bool kInvariantCheckable = false;
    static constexpr bool kCumulativeAcks = true;  // ack names the delivery floor

    explicit AbpCore(const runtime::EngineConfig&, Options = {}) {}

    const AbpSender& sender_core() const { return sender_; }
    const AbpReceiver& receiver_core() const { return receiver_; }

    bool can_send_new() const { return sender_.can_send_new(); }
    proto::Data send_new(SimTime) { return sender_.send_new(); }
    void on_ack(const proto::Ack& ack, const runtime::TxView&) { sender_.on_ack(ack); }
    bool has_outstanding() const { return sender_.awaiting_ack(); }

    runtime::RxOutcome on_data(const proto::Data& msg, SimTime) {
        runtime::RxOutcome out;
        const Seq before = receiver_.delivered();
        const proto::Ack ack = receiver_.on_data(msg);  // always acks
        out.delivered = receiver_.delivered() - before;
        out.duplicate = out.delivered == 0;
        out.immediate_ack = ack;
        return out;
    }

    Seq ack_pending() const { return 0; }  // every arrival acks immediately
    proto::Ack make_ack() { return {}; }   // unreachable: ack_pending is 0

    void resend_candidates(std::vector<Seq>& out) const {
        if (sender_.awaiting_ack()) out.push_back(sender_.completed());
    }
    bool can_resend(Seq true_seq) const {
        return sender_.awaiting_ack() && true_seq == sender_.completed();
    }
    proto::Data resend(Seq, SimTime) { return sender_.resend(); }
    void simple_timeout_set(std::vector<Seq>& out) const { out.push_back(sender_.completed()); }

private:
    AbpSender sender_;
    AbpReceiver receiver_;
};

/// Go-back-N with cumulative acknowledgments.  domain = 0 selects
/// unbounded sequence numbers (safe under loss AND reorder); a bounded
/// domain reproduces the SI aliasing bug for the model checker and is
/// NOT safe over reordering channels.
class GbnCore {
public:
    struct Options {
        Seq domain = 0;  // 0 = unbounded (safe); > w only for demonstrations
    };

    static constexpr bool kRequiresFifo = false;
    static constexpr runtime::TimeoutMode kDefaultTimeoutMode =
        runtime::TimeoutMode::SimpleTimer;
    static constexpr bool kInvariantCheckable = false;
    static constexpr bool kCumulativeAcks = true;

    GbnCore(const runtime::EngineConfig& cfg, Options options)
        : sender_(cfg.w, options.domain), receiver_(options.domain) {}

    const GbnSender& sender_core() const { return sender_; }
    const GbnReceiver& receiver_core() const { return receiver_; }

    bool can_send_new() const { return sender_.can_send_new(); }
    proto::Data send_new(SimTime) { return sender_.send_new(); }
    void on_ack(const proto::Ack& ack, const runtime::TxView&) { sender_.on_ack(ack); }
    bool has_outstanding() const { return sender_.has_outstanding(); }

    runtime::RxOutcome on_data(const proto::Data& msg, SimTime) {
        runtime::RxOutcome out;
        const Seq before = receiver_.nr();
        receiver_.on_data(msg);
        out.delivered = receiver_.nr() - before;
        out.duplicate = out.delivered == 0;
        return out;
    }

    /// Cumulative acks ride the engine's ack policy; the classic eager
    /// policy acknowledges after every arrival (including duplicate
    /// re-acks), exactly the traditional formulation.
    Seq ack_pending() const { return receiver_.can_ack() ? 1 : 0; }
    proto::Ack make_ack() { return receiver_.make_ack(); }

    void resend_candidates(std::vector<Seq>& out) const {
        for (Seq m = sender_.na(); m < sender_.ns(); ++m) out.push_back(m);
    }
    bool can_resend(Seq true_seq) const {
        return true_seq >= sender_.na() && true_seq < sender_.ns();
    }
    proto::Data resend(Seq true_seq, SimTime) { return proto::Data{wire_of(true_seq)}; }

    /// Go back N: the simple timer retransmits the entire outstanding
    /// window, in order.
    void simple_timeout_set(std::vector<Seq>& out) const { resend_candidates(out); }

    /// Wire value the message with true sequence number \p m travels
    /// under: the residue when a bounded domain is configured, the true
    /// value otherwise.  Environments that key per-frame state by wire
    /// value (the net runtime's payload stash) consult this.
    Seq wire_seq(Seq m) const { return wire_of(m); }

    /// Chaos hook (runtime::kCoreCorruptible, src/chaos): go-back-N has
    /// exactly two forgettable facts -- the sender's cumulative na and
    /// the receiver's ack progress.  Unbounded domain only: regressing
    /// bounded-mode state feeds the SI aliasing bug instead of testing
    /// recovery.
    std::string corrupt_state(Rng& rng) {
        if (sender_.domain() != 0) return "";
        const std::uint64_t first = rng.uniform(2);
        for (std::uint64_t k = 0; k < 2; ++k) {
            if ((first + k) % 2 == 0) {
                const Seq ns = sender_.ns();
                const Seq floor = ns >= sender_.window() ? ns - sender_.window() : 0;
                const Seq old_na = sender_.na();
                if (old_na <= floor) continue;
                const Seq new_na = floor + rng.uniform(old_na - floor);
                sender_.chaos_regress_na(new_na);
                return "gbn sender na " + std::to_string(old_na) + " -> " +
                       std::to_string(new_na);
            }
            const Seq acked = receiver_.acked();
            if (acked == 0) continue;
            const Seq new_acked = rng.uniform(acked);
            receiver_.chaos_regress_acked(new_acked);
            return "gbn receiver re-acks from " + std::to_string(new_acked);
        }
        return "";
    }

private:
    Seq wire_of(Seq m) const { return sender_.domain() == 0 ? m : m % sender_.domain(); }

    GbnSender sender_;
    GbnReceiver receiver_;
};

/// Selective repeat: the sender is exactly ba::Sender (block acks degrade
/// gracefully to singletons); the receiver acknowledges *every* data
/// message individually -- the paper's "severe restriction" whose ack
/// overhead E4 quantifies.  Per-message conservative timers are the
/// natural discipline.  Incoming acks are clipped to the sender's
/// still-unacknowledged runs (runtime/ack_clip.hpp) before reaching the
/// strict ba::Sender: over the DES channels (which never duplicate)
/// clipping is the identity, but a real or impaired network can
/// duplicate an ack datagram outright, and the re-ack of a buffered
/// duplicate can race its original under reordering.
class SrCore {
public:
    struct Options {};

    static constexpr bool kRequiresFifo = false;
    static constexpr runtime::TimeoutMode kDefaultTimeoutMode =
        runtime::TimeoutMode::PerMessageTimer;
    static constexpr bool kInvariantCheckable = false;
    // Selective acks name individual arrivals: sequence numbers *below*
    // an acked one may still be undelivered holes, so a stale-shifted
    // ack is a false ack here, not a harmless duplicate.
    static constexpr bool kCumulativeAcks = false;

    explicit SrCore(const runtime::EngineConfig& cfg, Options = {})
        : sender_(cfg.w), receiver_(cfg.w) {}

    const ba::Sender& sender_core() const { return sender_; }
    const SrReceiver& receiver_core() const { return receiver_; }

    bool can_send_new() const { return sender_.can_send_new(); }
    proto::Data send_new(SimTime) { return sender_.send_new(); }
    void on_ack(const proto::Ack& ack, const runtime::TxView&) {
        runs_scratch_.clear();
        runtime::clip_ack_unbounded_into(sender_, ack, runs_scratch_);
        for (const proto::Ack& run : runs_scratch_) sender_.on_ack(run);
    }
    bool has_outstanding() const { return sender_.outstanding() > 0; }

    runtime::RxOutcome on_data(const proto::Data& msg, SimTime) {
        runtime::RxOutcome out;
        // Same hardening as ba::EngineCore: a CRC-valid frame can still
        // carry an impossible sequence number; reject it instead of
        // tripping the pure receiver's window precondition.
        if (msg.seq >= receiver_.nr() + receiver_.window()) {
            out.rejected = true;
            return out;
        }
        const bool was_new = msg.seq >= receiver_.nr() && !receiver_.rcvd(msg.seq);
        // Selective repeat: one distinct acknowledgment per data message.
        out.immediate_ack = receiver_.on_data(msg);
        out.duplicate = !was_new;
        while (receiver_.can_deliver()) {
            receiver_.deliver();
            ++out.delivered;
        }
        out.buffered = was_new && out.delivered == 0;
        return out;
    }

    Seq ack_pending() const { return 0; }  // every arrival acks immediately
    proto::Ack make_ack() { return {}; }   // unreachable: ack_pending is 0

    void resend_candidates(std::vector<Seq>& out) const { sender_.resend_candidates(out); }
    bool can_resend(Seq true_seq) const { return sender_.can_resend(true_seq); }
    proto::Data resend(Seq true_seq, SimTime) { return sender_.resend(true_seq); }
    void simple_timeout_set(std::vector<Seq>& out) const { out.push_back(sender_.na()); }

    /// Chaos hook (runtime::kCoreCorruptible, src/chaos): the sender is
    /// ba::Sender, so its scoreboard faults apply verbatim.  Receiver
    /// memory is *not* corruptible here: SR acks every arrival
    /// individually and immediately, so any buffered message may already
    /// be promised by an ack in flight -- once that ack lands, the
    /// sender provably never resends and a forgotten copy wedges the
    /// session.  (BA's receiver stash above the contiguous block is
    /// unacked until the block closes, which is what makes the same
    /// fault repairable there -- see ba::EngineCore::corrupt_state.)
    std::string corrupt_state(Rng& rng) {
        const std::uint64_t first = rng.uniform(2);
        for (std::uint64_t k = 0; k < 2; ++k) {
            switch ((first + k) % 2) {
                case 0: {  // sender forgets its ack scoreboard
                    const Seq ns = sender_.ns();
                    const Seq w = sender_.window();
                    const Seq floor = ns >= w ? ns - w : 0;
                    const Seq old_na = sender_.na();
                    if (old_na <= floor) break;
                    const Seq new_na = floor + rng.uniform(old_na - floor);
                    sender_.chaos_forget_acks(new_na);
                    return "sr sender forgot acks: na " + std::to_string(old_na) + " -> " +
                           std::to_string(new_na);
                }
                case 1: {  // one ackd bit flips off
                    Seq count = 0;
                    for (Seq i = sender_.na(); i < sender_.ns(); ++i) {
                        count += sender_.ackd(i) ? 1 : 0;
                    }
                    if (count == 0) break;
                    Seq pick = rng.uniform(count);
                    for (Seq i = sender_.na(); i < sender_.ns(); ++i) {
                        if (!sender_.ackd(i)) continue;
                        if (pick == 0) {
                            sender_.chaos_clear_ackd(i);
                            return "sr sender ackd[" + std::to_string(i) + "] flipped off";
                        }
                        --pick;
                    }
                    break;
                }
            }
        }
        return "";
    }

private:
    ba::Sender sender_;
    SrReceiver receiver_;
    std::vector<proto::Ack> runs_scratch_;  // clip output, reused per ack
};

/// Time-constrained protocol (Stenning; Shankar & Lam): bounded sequence
/// numbers + cumulative acks, made safe by a minimum reuse interval
/// between transmissions sharing a residue.  When the window wants to
/// advance but the residue of ns is still quarantined, the core reports
/// the exact clearing time through send_blocked_until -- that stall is
/// the N / reuse_interval throughput cap experiment E7 measures.
///
/// The reuse interval protects *data* residue reuse, but the cumulative
/// acks still alias when duplicate re-acks are reordered across a domain
/// wrap, so the baseline runs in its classically safe regime (FIFO
/// channels, domain > w) -- the spacing stall E7 measures is
/// channel-order independent.
class TcCore {
public:
    struct Options {
        Seq domain = 16;             // sequence-number domain N (> w)
        SimTime reuse_interval = 0;  // 0 = derive: L_SR + L_RS + margin
    };

    static constexpr bool kRequiresFifo = true;
    static constexpr runtime::TimeoutMode kDefaultTimeoutMode =
        runtime::TimeoutMode::SimpleTimer;
    static constexpr bool kInvariantCheckable = false;
    static constexpr bool kCumulativeAcks = true;

    TcCore(const runtime::EngineConfig& cfg, Options options)
        : sender_(cfg.w, options.domain,
                  options.reuse_interval > 0
                      ? options.reuse_interval
                      : cfg.data_link.max_lifetime() + cfg.ack_link.max_lifetime() +
                            kMillisecond),
          receiver_(options.domain) {}

    const TcSender& sender_core() const { return sender_; }
    const GbnReceiver& receiver_core() const { return receiver_; }

    bool can_send_new() const { return sender_.window_open(); }

    /// Real-time half of the send guard: residue quarantine.
    SimTime send_blocked_until(SimTime now) const {
        if (sender_.residue_free(now)) return now;
        const SimTime ready = sender_.residue_ready_at();
        BACP_ASSERT(ready > now);
        return ready;
    }

    proto::Data send_new(SimTime now) { return sender_.send_new(now); }
    void on_ack(const proto::Ack& ack, const runtime::TxView&) { sender_.on_ack(ack); }
    bool has_outstanding() const { return sender_.has_outstanding(); }

    runtime::RxOutcome on_data(const proto::Data& msg, SimTime) {
        runtime::RxOutcome out;
        const Seq before = receiver_.nr();
        receiver_.on_data(msg);
        out.delivered = receiver_.nr() - before;
        out.duplicate = out.delivered == 0;
        return out;
    }

    Seq ack_pending() const { return receiver_.can_ack() ? 1 : 0; }
    proto::Ack make_ack() { return receiver_.make_ack(); }

    void resend_candidates(std::vector<Seq>& out) const {
        for (Seq m = sender_.na(); m < sender_.ns(); ++m) out.push_back(m);
    }
    bool can_resend(Seq true_seq) const {
        return true_seq >= sender_.na() && true_seq < sender_.ns();
    }
    proto::Data resend(Seq true_seq, SimTime now) {
        sender_.note_resend(true_seq, now);  // records the residue reuse
        return proto::Data{true_seq % sender_.domain()};
    }
    void simple_timeout_set(std::vector<Seq>& out) const { resend_candidates(out); }

    /// Wire residue of true sequence number \p m (always mod N here).
    Seq wire_seq(Seq m) const { return m % sender_.domain(); }

private:
    TcSender sender_;
    GbnReceiver receiver_;
};

}  // namespace bacp::baselines
