#pragma once

/// \file horizon.hpp
/// Send-horizon rule, applied by the block-ack core (ba::EngineCore).
///
/// When an acknowledgment covers a message i whose last copy may still be
/// in transit (last_tx(i) + L_SR > now -- only possible after
/// retransmissions), advancing the window past i + w would let the
/// receiver's nr outrun the in-flight copy by more than w, and under
/// bounded (mod 2w) sequence numbers the late copy would alias into a
/// *future* sequence number at the receiver.  Capping ns <= i + w until
/// the copy has provably aged out preserves invariant 11 (v < nr + w) for
/// every arrival.  This is the per-message analogue of TCP's quiet-time
/// rule.

#include <algorithm>

#include "common/types.hpp"

namespace bacp::runtime {

class SendHorizon {
public:
    /// Records that acknowledged message \p true_seq may still have a
    /// copy in the data channel until \p copy_gone.
    void note(Seq true_seq, SimTime copy_gone, SimTime now, Seq w) {
        if (copy_gone <= now) return;
        until_ = std::max(until_, copy_gone);
        cap_ = std::min(cap_, true_seq + w);
    }

    /// True when sending the message with true sequence number
    /// \p next_true_seq must wait for the horizon to expire.  Resets the
    /// cap once the horizon has passed.
    bool blocks(Seq next_true_seq, SimTime now) {
        if (until_ <= now) {
            cap_ = kNoCap;  // expired
            return false;
        }
        return next_true_seq >= cap_;
    }

    /// Expiry instant of the current horizon (meaningful while blocking).
    SimTime until() const { return until_; }

private:
    static constexpr Seq kNoCap = ~Seq{0};
    SimTime until_ = 0;  // horizon expiry
    Seq cap_ = kNoCap;   // ns may not exceed this before expiry
};

}  // namespace bacp::runtime
