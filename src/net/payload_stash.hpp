#pragma once

/// \file payload_stash.hpp
/// Zero-steady-state-allocation payload parking for receive endpoints.
///
/// A receiver stashes each DATA frame's payload until the driver
/// delivers the message, then consumes it.  The general-purpose
/// unordered_map that used to hold the stash allocates twice per
/// datagram (a node and a payload vector) -- visible, at server scale,
/// as the dominant per-datagram heap traffic.  This container replaces
/// it with open addressing over a flat slot array and a free list of
/// recycled payload buffers: once every slot and buffer has cycled at
/// the high-water mark, put()/erase() touch no heap at all (gated by
/// bench_e22 --check-budget).
///
/// Design notes:
///   - Slots store their key and are probed linearly from `key & mask`.
///     Live keys are (near-)consecutive sequence numbers spanning at
///     most a window, so the common probe length is exactly one.
///   - Deletion is backward-shift (no tombstones), keeping probe chains
///     minimal forever; the erased entry's buffer is parked for reuse.
///   - Same-key put() overwrites in place -- the latest-write-wins
///     contract the receive path relies on for reused wire values.
///   - The table grows (rehashes) only when live entries exceed half
///     the slots; with a protocol-bounded live set this happens during
///     warmup only.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace bacp::net {

class PayloadStash {
public:
    /// \p expected_live sizes the initial table (rounded up to a power
    /// of two with 2x headroom); the stash grows beyond it on demand.
    explicit PayloadStash(std::size_t expected_live = 16) {
        slots_.resize(initial_capacity(expected_live));
    }

    /// Bytes of the slot table a stash sized for \p expected_live starts
    /// with (parked buffers excluded) -- for footprint estimates.
    static std::size_t table_bytes(std::size_t expected_live) {
        return initial_capacity(expected_live) * sizeof(Slot);
    }

    std::size_t size() const { return live_; }
    bool empty() const { return live_ == 0; }
    std::size_t capacity() const { return slots_.size(); }

    /// Parks \p n recycled buffers of \p bytes_each capacity up front,
    /// so a receiver whose live set never exceeds \p n payloads of that
    /// size allocates nothing after construction -- without this, the
    /// buffer pool only reaches high water once loss actually builds a
    /// full window of stashed out-of-order payloads.
    void reserve_buffers(std::size_t n, std::size_t bytes_each) {
        free_buffers_.reserve(free_buffers_.size() + n);
        for (std::size_t i = 0; i < n; ++i) {
            std::vector<std::uint8_t> buffer;
            buffer.reserve(bytes_each);
            free_buffers_.push_back(std::move(buffer));
        }
    }

    /// Stashes \p payload under \p key, overwriting any previous bytes
    /// for the same key (latest write wins).
    void put(Seq key, std::span<const std::uint8_t> payload) {
        if ((live_ + 1) * 2 > slots_.size()) grow();
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = static_cast<std::size_t>(key) & mask;
        while (slots_[i].state == State::Occupied) {
            if (slots_[i].key == key) {
                slots_[i].bytes.assign(payload.begin(), payload.end());
                return;
            }
            i = (i + 1) & mask;
        }
        Slot& slot = slots_[i];
        slot.state = State::Occupied;
        slot.key = key;
        if (slot.bytes.capacity() == 0 && !free_buffers_.empty()) {
            slot.bytes = std::move(free_buffers_.back());
            free_buffers_.pop_back();
        }
        slot.bytes.assign(payload.begin(), payload.end());
        ++live_;
    }

    /// Stashed bytes for \p key, or nullptr.  Valid until the next
    /// mutation.
    const std::vector<std::uint8_t>* find(Seq key) const {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = static_cast<std::size_t>(key) & mask;
        while (slots_[i].state == State::Occupied) {
            if (slots_[i].key == key) return &slots_[i].bytes;
            i = (i + 1) & mask;
        }
        return nullptr;
    }

    /// Removes \p key, parking its buffer for reuse.  Returns false when
    /// absent.
    bool erase(Seq key) {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = static_cast<std::size_t>(key) & mask;
        while (slots_[i].state == State::Occupied) {
            if (slots_[i].key == key) break;
            i = (i + 1) & mask;
        }
        if (slots_[i].state != State::Occupied) return false;
        park(slots_[i].bytes);
        // Backward-shift deletion: pull every displaced successor in the
        // probe chain one slot back, so no tombstone is ever needed.
        std::size_t hole = i;
        std::size_t j = (i + 1) & mask;
        while (slots_[j].state == State::Occupied) {
            const std::size_t home = static_cast<std::size_t>(slots_[j].key) & mask;
            // Move j back into the hole unless j's home lies after the
            // hole in probe order (then the hole is not on j's chain).
            const bool reachable = ((j - home) & mask) >= ((j - hole) & mask);
            if (reachable) {
                slots_[hole].key = slots_[j].key;
                slots_[hole].bytes.swap(slots_[j].bytes);
                slots_[j].bytes.clear();
                hole = j;
            }
            j = (j + 1) & mask;
        }
        slots_[hole].state = State::Empty;
        --live_;
        return true;
    }

private:
    enum class State : std::uint8_t { Empty, Occupied };

    static std::size_t initial_capacity(std::size_t expected_live) {
        std::size_t cap = 8;
        while (cap < expected_live * 2) cap <<= 1;
        return cap;
    }

    struct Slot {
        State state = State::Empty;
        Seq key = 0;
        std::vector<std::uint8_t> bytes;
    };

    void park(std::vector<std::uint8_t>& bytes) {
        if (bytes.capacity() == 0) return;
        std::vector<std::uint8_t> buffer;
        buffer.swap(bytes);
        buffer.clear();
        free_buffers_.push_back(std::move(buffer));
    }

    void grow() {
        std::vector<Slot> old;
        old.swap(slots_);
        slots_.resize(old.size() * 2);
        live_ = 0;
        const std::size_t mask = slots_.size() - 1;
        for (Slot& s : old) {
            if (s.state != State::Occupied) continue;
            std::size_t i = static_cast<std::size_t>(s.key) & mask;
            while (slots_[i].state == State::Occupied) i = (i + 1) & mask;
            slots_[i].state = State::Occupied;
            slots_[i].key = s.key;
            slots_[i].bytes = std::move(s.bytes);
            ++live_;
        }
    }

    std::vector<Slot> slots_;
    std::vector<std::vector<std::uint8_t>> free_buffers_;
    std::size_t live_ = 0;
};

}  // namespace bacp::net
