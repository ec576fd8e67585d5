#pragma once

/// \file endpoint_core.hpp
/// The EndpointCore protocol surface and the transport-agnostic helpers
/// shared by the two runtimes that drive cores: the discrete-event
/// runtime::Engine (virtual time, sim::SimChannel) and the real-time
/// net::NetEndpoint (wall clock, UDP or in-process datagrams).  Extracted from engine.hpp so a core written once runs
/// unchanged over both -- the paper's protocol machines never learn
/// which kind of time or channel is underneath them.

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/timer_service.hpp"
#include "common/types.hpp"
#include "protocol/message.hpp"
#include "runtime/timeout_mode.hpp"

namespace bacp::runtime {

/// Per-message send state: one record per message, tagged with its true
/// sequence number.  Held in a SendRing, never in a table keyed by seq.
struct SendRecord {
    static constexpr Seq kNoSeq = std::numeric_limits<Seq>::max();

    Seq seq = kNoSeq;              // tag: the true seq this record describes
    SimTime first_tx = 0;          // ack-latency origin
    SimTime last_tx = 0;           // newest copy (maturity, horizon, NAK rule)
    SimTime origin = 0;            // delivery-latency origin: release or first tx
    TimerId timer = kInvalidTimer; // live per-message expiry
};

/// The sender's per-message records, indexed by true seq mod a
/// power-of-two capacity.  Sized to cover the span the core can have
/// outstanding (ns - na), every message the core may still resend keeps
/// its record: the ring holds the last `capacity()` seqs sent, and a
/// record is only reused for the seq exactly one capacity later.  A tag
/// mismatch reads as "never sent" -- the answer for a seq the ring has
/// moved past, and for a receiving half that never sends.  The owner
/// decides when a record is still live and grows the ring instead of
/// overwriting it (EndpointDriver::open_record).
class SendRing {
public:
    std::size_t capacity() const { return slots_.size(); }

    /// The record of \p true_seq, or nullptr when its slot holds another
    /// seq (or none).
    const SendRecord* find(Seq true_seq) const {
        if (slots_.empty()) return nullptr;
        const SendRecord& r = slots_[index(true_seq)];
        return r.seq == true_seq ? &r : nullptr;
    }
    SendRecord* find(Seq true_seq) {
        return const_cast<SendRecord*>(std::as_const(*this).find(true_seq));
    }

    /// The slot \p true_seq maps to, whatever it holds.  Precondition:
    /// capacity() > 0.
    SendRecord& slot(Seq true_seq) { return slots_[index(true_seq)]; }

    /// Sizes an empty ring to cover \p span seqs, or doubles a sized one,
    /// re-placing every record by its tag.
    void grow(std::size_t span) {
        std::vector<SendRecord> old;
        old.swap(slots_);
        slots_.resize(old.empty() ? std::bit_ceil(std::max<std::size_t>(span, 1))
                                  : 2 * old.size());
        for (const SendRecord& r : old) {
            if (r.seq != SendRecord::kNoSeq) slot(r.seq) = r;
        }
    }

    template <typename F>
    void for_each(F&& f) {
        for (SendRecord& r : slots_) {
            if (r.seq != SendRecord::kNoSeq) f(r);
        }
    }

private:
    std::size_t index(Seq true_seq) const {
        return static_cast<std::size_t>(true_seq) & (slots_.size() - 1);
    }

    std::vector<SendRecord> slots_;
};

/// Read-only view of a runtime's send records, handed to cores that
/// need transmission times (send horizon, NAK one-copy rule).
struct TxView {
    SimTime now = 0;
    SimTime data_lifetime = 0;  // max time a copy can survive in C_SR
    const SendRing* ring = nullptr;

    std::optional<SimTime> last_tx_time(Seq true_seq) const {
        const SendRecord* r = ring->find(true_seq);
        if (r == nullptr) return std::nullopt;
        return r->last_tx;
    }
};

/// What the receiver half of a core reports for one data arrival.
struct RxOutcome {
    Seq delivered = 0;      // in-order deliveries unlocked by this arrival
    bool duplicate = false; // arrival did not carry new information
    /// BA-style duplicate re-ack: counted as a dup_ack, sent immediately,
    /// and the arrival contributes nothing else (early return).
    std::optional<proto::Ack> dup_ack;
    /// Mandatory per-arrival acknowledgment (selective repeat, ABP);
    /// bypasses the ack policy.
    std::optional<proto::Ack> immediate_ack;
    /// Fast-retransmit request the receiver wants on the ack channel.
    std::optional<proto::Nak> nak;
    /// The arrival was new and is now held beyond a gap: a later
    /// delivery needs its payload.  The one arrival a wire environment
    /// must keep; every other payload is consumed now or dead (a
    /// duplicate, a rejected or discarded frame, a seq already received
    /// but not yet acknowledged).
    bool buffered = false;
    /// Arrival was syntactically valid but semantically impossible (e.g.
    /// a sequence number beyond nr + w that no conforming sender could
    /// have emitted).  A CRC-valid-but-corrupted frame lands here; the
    /// runtime counts it as a decode error and otherwise treats it as
    /// loss instead of crashing on a receiver precondition.
    bool rejected = false;
};

// clang-format off
/// The protocol surface a runtime drives.  All sequence numbers crossing
/// this boundary are TRUE (unbounded) values; cores map to wire residues
/// internally.  Optional extensions a runtime detects per core (see the
/// kCore* traits below):
///
///   send_blocked_until(now)      time gate on new sends (send horizon,
///                                residue quarantine); the runtime sleeps
///                                until the returned instant
///   timeout_eligible(seq, bool)  SIV resend gate (realistic) and the
///                                receiver-oracle conjunct (oracle mode)
///   on_nak(nak, tx)              sender-side NAK fast retransmit
///   send_span()                  largest ns - na the sender can reach,
///                                when it exceeds w (hole reuse)
///   sender_core()/receiver_core() expose the underlying pure cores
///
/// resend_candidates(out) and simple_timeout_set(out) APPEND into a
/// caller-owned vector instead of returning one: the runtimes call them
/// on every ack / timeout, and the append style lets a runtime reuse one
/// scratch vector for the whole session instead of allocating per call.
template <typename C>
concept EndpointCore =
    requires(C core, const C& ccore, proto::Data data, proto::Ack ack,
             TxView tx, SimTime t, Seq seq, std::vector<Seq>& seqs) {
        typename C::Options;
        { C::kRequiresFifo } -> std::convertible_to<bool>;
        { C::kDefaultTimeoutMode } -> std::convertible_to<TimeoutMode>;
        { ccore.can_send_new() } -> std::convertible_to<bool>;
        { core.send_new(t) } -> std::same_as<proto::Data>;
        { core.on_ack(ack, tx) };
        { ccore.has_outstanding() } -> std::convertible_to<bool>;
        { core.on_data(data, t) } -> std::same_as<RxOutcome>;
        { ccore.ack_pending() } -> std::convertible_to<Seq>;
        { core.make_ack() } -> std::same_as<proto::Ack>;
        { ccore.resend_candidates(seqs) } -> std::same_as<void>;
        { ccore.can_resend(seq) } -> std::convertible_to<bool>;
        { core.resend(seq, t) } -> std::same_as<proto::Data>;
        { ccore.simple_timeout_set(seqs) } -> std::same_as<void>;
    };
// clang-format on

/// Optional-extension detection, shared by both runtimes so the same
/// core exercises the same policies over virtual and wall-clock time.
template <typename C>
inline constexpr bool kCoreTimeGatedSend =
    requires(C& c, SimTime t) { { c.send_blocked_until(t) } -> std::convertible_to<SimTime>; };

template <typename C>
inline constexpr bool kCoreGatedResend =
    requires(const C& c, Seq s) { { c.timeout_eligible(s, true) } -> std::convertible_to<bool>; };

template <typename C>
inline constexpr bool kCoreHandlesNak =
    requires(C& c, const proto::Nak& n, const TxView& tx) {
        { c.on_nak(n, tx) } -> std::same_as<std::optional<Seq>>;
    };

template <typename C>
inline constexpr bool kCoreSendSpan =
    requires(const C& c) { { c.send_span() } -> std::convertible_to<Seq>; };

/// Chaos hook (src/chaos): the core can apply one seeded perturbation
/// drawn from its reachable-but-wrong state space -- forgotten acks, a
/// regressed cumulative pointer, cleared cache bits.  Returns a short
/// human-readable description of what was corrupted, or "" when the
/// current state offers nothing to corrupt.  Implementations must keep
/// the state *internally* consistent (no broken representation
/// invariants) while making it *protocol*-inconsistent with the peer;
/// self-stabilization is measured from exactly such configurations.
template <typename C>
inline constexpr bool kCoreCorruptible = requires(C& c, Rng& rng) {
    { c.corrupt_state(rng) } -> std::convertible_to<std::string>;
};

}  // namespace bacp::runtime
