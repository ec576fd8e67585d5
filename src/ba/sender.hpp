#pragma once

/// \file sender.hpp
/// Block-acknowledgment sender, paper SII/SIV (unbounded sequence numbers).
///
/// This is a *pure* protocol core: it performs no I/O and keeps no timers.
/// Actions are exposed as guard/command pairs so that
///   - the explicit-state model checker can explore every interleaving, and
///   - the discrete-event runtime can drive the same code with timers.
///
/// Paper actions (process S):
///   0:  ns < na + w           -> send ns; ns := ns + 1
///   1:  rcv (i, j)            -> ackd[i..j] := true; advance na
///   2:  timeout               -> send na                       (SII)
///   2': timeout(i)            -> send i                        (SIV)
///
/// The timeout *guards* mention channel contents and receiver state, which
/// a real sender cannot observe; only their local conjuncts live here
/// (see can_resend()).  The runtime supplies the rest either via an oracle
/// (correctness runs) or via conservative timers (performance runs).

#include <compare>
#include <vector>

#include "common/types.hpp"
#include "protocol/message.hpp"
#include "protocol/window.hpp"

namespace bacp::ba {

class Sender {
public:
    /// \p w is the maximum window size, paper's constant w > 0.
    explicit Sender(Seq w);

    Seq window() const { return w_; }

    /// Current effective window limit (<= w).  The paper's concluding
    /// remarks note all its protocols extend to variable-size windows;
    /// the *maximum* w stays fixed (it sizes buffers and, in the bounded
    /// protocol, the residue domain), while the limit used by action 0's
    /// guard may move within [1, w] at any time -- shrinking never
    /// invalidates in-flight state because it only disables new sends.
    Seq window_limit() const { return limit_; }
    void set_window_limit(Seq limit);
    /// Next message to be acknowledged (lower window edge).
    Seq na() const { return na_; }
    /// Next message to be sent (upper window edge).
    Seq ns() const { return ns_; }
    /// Logical ackd[m] of the paper's infinite array.
    bool ackd(Seq m) const { return ackd_.test(m); }
    /// Number of sent-but-unacknowledged messages (ns - na).
    Seq outstanding() const { return ns_ - na_; }

    /// Guard of action 0 (with the current variable-window limit).
    bool can_send_new() const { return ns_ < na_ + limit_; }
    /// Action 0: returns the data message to place on the channel.
    proto::Data send_new();

    /// Action 1: processes block acknowledgment (i, j).
    /// Precondition (protocol invariant 8/9/10): na <= i <= j < na + w and
    /// none of [i, j] already acknowledged; violations throw AssertionError.
    void on_ack(const proto::Ack& ack);

    /// Local conjunct of both timeout guards: message \p i is outstanding
    /// and unacknowledged (na <= i < ns and not ackd[i]).
    bool can_resend(Seq i) const { return na_ <= i && i < ns_ && !ackd_.test(i); }

    /// All sequence numbers eligible for retransmission (SIV candidates).
    /// The SII simple-timeout sender only ever uses the first entry (na).
    /// The appending overload is the runtimes' hot path (scratch reuse).
    void resend_candidates(std::vector<Seq>& out) const;
    std::vector<Seq> resend_candidates() const;

    /// True when some message above \p i is already acknowledged (an ack
    /// "hole").  Because the receiver acknowledges in order only, a hole
    /// proves the receiver accepted i and the ack was lost -- the
    /// realistic per-message timeout uses this as its resend gate (see
    /// ba::EngineCore::timeout_eligible).
    bool acked_beyond(Seq i) const;

    /// Action 2/2': the retransmitted copy of message \p i.  The sender's
    /// state does not change (retransmission only re-places the message on
    /// the channel).
    proto::Data resend(Seq i) const;

    /// Chaos (src/chaos): forgets acknowledgment state -- na regresses to
    /// \p new_na and every ackd bit above it clears, as if a transient
    /// fault wiped the ack scoreboard.  \p new_na must stay within one
    /// window of ns so the healing re-acks land inside the rebuilt
    /// bitmap.  Never called by the protocol itself.
    void chaos_forget_acks(Seq new_na);

    /// Chaos: forgets a single acknowledgment (ackd[m] := false,
    /// na <= m < ns).  The peer re-acks it as a duplicate and the
    /// runtime's SACK clipping re-applies the coverage.
    void chaos_clear_ackd(Seq m);

    friend bool operator==(const Sender&, const Sender&) = default;

    /// Feeds the canonical state into a hash accumulator.
    template <typename H>
    void feed(H&& h) const {
        h(na_);
        h(ns_);
        h(limit_);
        ackd_.feed(h);
    }

private:
    Seq w_;
    Seq limit_;  // effective window, in [1, w_]
    Seq na_ = 0;
    Seq ns_ = 0;
    proto::WindowBitmap ackd_;  // base na_: true below na_, window [na_, na_+w)
};

}  // namespace bacp::ba
