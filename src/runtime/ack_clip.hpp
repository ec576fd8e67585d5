#pragma once

/// \file ack_clip.hpp
/// SACK-style acknowledgment clipping.
///
/// Realistic per-message timers (SIV) cannot evaluate the receiver-state
/// conjunct of timeout(i), so a sender may retransmit a message the
/// receiver already buffered; the duplicate acknowledgments that follow
/// can overlap ranges the sender has processed.  clip_ack() intersects an
/// incoming block with the sender's still-unacknowledged runs so the
/// strict protocol core only ever sees fresh coverage -- the exact
/// discipline of a TCP SACK scoreboard.
///
/// Under the oracle timeout modes and the SII single timer the paper's
/// assertion 8 holds and clipping is the identity.

#include <algorithm>
#include <vector>

#include "common/types.hpp"
#include "protocol/message.hpp"
#include "protocol/seqnum.hpp"

namespace bacp::runtime {

/// Bounded (residue) senders: core must expose domain(), na_mod(),
/// outstanding(), can_resend().  Appends the clipped runs to \p runs --
/// the runtimes clip on every ack arrival and reuse one scratch vector
/// per session.
template <typename BoundedCore>
void clip_ack_bounded_into(const BoundedCore& sender, const proto::Ack& ack,
                           std::vector<proto::Ack>& runs) {
    const Seq n = sender.domain();
    if (ack.lo >= n || ack.hi >= n) return;  // malformed residues
    const Seq len = proto::mod_offset(ack.lo, ack.hi, n);
    bool in_run = false;
    Seq run_lo = 0, run_hi = 0;
    const Seq out = sender.outstanding();
    for (Seq k = 0; k < out; ++k) {
        const Seq field = proto::mod_add(sender.na_mod(), k, n);
        const bool covered =
            proto::mod_offset(ack.lo, field, n) <= len && sender.can_resend(field);
        if (covered && !in_run) {
            in_run = true;
            run_lo = field;
        }
        if (covered) run_hi = field;
        if (!covered && in_run) {
            in_run = false;
            runs.push_back(proto::Ack{run_lo, run_hi});
        }
    }
    if (in_run) runs.push_back(proto::Ack{run_lo, run_hi});
}

/// Unbounded senders: core must expose na(), ns(), can_resend().
template <typename Core>
void clip_ack_unbounded_into(const Core& sender, const proto::Ack& ack,
                             std::vector<proto::Ack>& runs) {
    if (ack.lo > ack.hi) return;
    const Seq lo = std::max(ack.lo, sender.na());
    bool in_run = false;
    Seq run_lo = 0, run_hi = 0;
    for (Seq m = lo; m <= ack.hi && m < sender.ns(); ++m) {
        const bool covered = sender.can_resend(m);
        if (covered && !in_run) {
            in_run = true;
            run_lo = m;
        }
        if (covered) run_hi = m;
        if (!covered && in_run) {
            in_run = false;
            runs.push_back(proto::Ack{run_lo, run_hi});
        }
    }
    if (in_run) runs.push_back(proto::Ack{run_lo, run_hi});
}

}  // namespace bacp::runtime
