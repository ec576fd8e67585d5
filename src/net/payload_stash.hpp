#pragma once

/// \file payload_stash.hpp
/// Zero-steady-state-allocation payload parking for receive endpoints.
///
/// A receiver parks a DATA frame's payload only when the core buffered
/// the message beyond a gap (runtime::RxOutcome::buffered) -- the one
/// case in which a later delivery needs bytes the current frame no
/// longer holds.  Every other arrival is delivered straight from its
/// frame or is dead on arrival (Jain, *On Caching Out-of-Order Packets*:
/// the receiver cache holds out-of-order packets only).
///
/// So the live keys are the wire values of messages buffered in
/// (vr, vr + w): fewer than w of them, and distinct mod w for every
/// core -- unbounded seqs trivially, residue cores because their domain
/// is a multiple of w (bounded BA: 2w).  The stash is therefore a fixed
/// array of w slots indexed by wire value mod w, each tagged with its
/// key:
///   - put() overwrites its slot, whatever it held.  An older key there
///     is dead -- its message was delivered, forgotten, or lies a whole
///     window back -- so latest write wins, including for a wire value a
///     residue core reuses;
///   - find() of a key whose slot holds another tag reads as absent;
///   - each slot owns one payload buffer for life, reserved up front, so
///     put()/erase() never touch the heap (gated by bench_e22
///     --check-budget).

#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace bacp::net {

class PayloadStash {
public:
    /// \p w slots, one per key a window can hold.
    explicit PayloadStash(std::size_t w = 16) : slots_(w) {
        BACP_ASSERT_MSG(w > 0, "payload stash needs a positive window");
    }

    /// Bytes of the slot array for window \p w (payload buffers
    /// excluded) -- for footprint estimates.
    static std::size_t table_bytes(std::size_t w) { return w * sizeof(Slot); }

    std::size_t size() const { return live_; }
    bool empty() const { return live_ == 0; }
    std::size_t capacity() const { return slots_.size(); }

    /// Reserves every slot's buffer at \p bytes_each, so a receiver whose
    /// payloads never exceed that size allocates nothing after
    /// construction -- without this, a slot's buffer only reaches high
    /// water once loss actually buffers a message there.
    void reserve_buffers(std::size_t bytes_each) {
        for (Slot& slot : slots_) slot.bytes.reserve(bytes_each);
    }

    /// Parks \p payload under \p key, replacing whatever its slot held.
    void put(Seq key, std::span<const std::uint8_t> payload) {
        Slot& slot = slots_[index(key)];
        if (slot.key == kEmpty) ++live_;
        slot.key = key;
        slot.bytes.assign(payload.begin(), payload.end());
    }

    /// Parked bytes for \p key, or nullptr.  Valid until the next
    /// mutation.
    const std::vector<std::uint8_t>* find(Seq key) const {
        const Slot& slot = slots_[index(key)];
        return slot.key == key ? &slot.bytes : nullptr;
    }

    /// Releases \p key's slot (its buffer stays for reuse).  Returns
    /// false when absent.
    bool erase(Seq key) {
        Slot& slot = slots_[index(key)];
        if (slot.key != key) return false;
        slot.key = kEmpty;
        slot.bytes.clear();
        --live_;
        return true;
    }

private:
    static constexpr Seq kEmpty = ~Seq{0};

    struct Slot {
        Seq key = kEmpty;
        std::vector<std::uint8_t> bytes;
    };

    std::size_t index(Seq key) const { return static_cast<std::size_t>(key % slots_.size()); }

    std::vector<Slot> slots_;
    std::size_t live_ = 0;
};

}  // namespace bacp::net
