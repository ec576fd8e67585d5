#pragma once

/// \file flat_table.hpp
/// Open-addressing hash table over a contiguous slot slab.
///
/// The server's per-shard session table was a `std::unordered_map<Key,
/// unique_ptr<Session>>`: every lookup chased a bucket node and then a
/// unique_ptr, every insert/erase touched the heap, and at 100k
/// sessions the node spray dominated the demux path.  FlatTable is the
/// replacement: keys and values live inline in one contiguous slot
/// slab, the index is a power-of-two linear-probe array of slot
/// references, and erase uses backward-shift deletion (an entry moves
/// back only if the hole lies on its probe chain from its home slot) so
/// there are no tombstones to accumulate and probe chains stay short at
/// a fixed <= 50% load factor.
///
/// Properties the server and its tests rely on:
///  - zero steady-state allocations: after reserve(n) (or once high
///    water is reached), insert/erase/find never touch the heap;
///  - generation-tagged handles: erase bumps the slot generation, so a
///    stale Handle can never resolve to a recycled slot's new tenant
///    (the same odd-is-live parity scheme as common/slab_heap.hpp);
///  - slot-indexed access: callers can sample live slots by index
///    (the server's eviction pressure picks LRU-ish victims this way)
///    and iterate the slab without touching the index array;
///  - values need only be movable + default-constructible (move-only
///    types like the server's Session are fine); slab growth and
///    backward shift move index entries, not values, so iterator-free
///    callers never see a value move except on slab reallocation.
///
/// Not thread-safe; one table per shard, owned by the shard's thread.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace bacp {

template <typename Key, typename T, typename Hash = std::hash<Key>>
class FlatTable {
public:
    /// Generation-tagged slot reference: ((slot + 1) << 32) | generation,
    /// odd generation = live (slab_heap's parity scheme).  Value 0 is
    /// never a valid handle.
    using Handle = std::uint64_t;

    FlatTable() = default;
    explicit FlatTable(Hash hash) : hash_(std::move(hash)) {}

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /// Ensure capacity for `n` live entries without further allocation.
    void reserve(std::size_t n) {
        slots_.reserve(n);
        if (index_capacity_for(n) > index_.size()) rebuild_index(index_capacity_for(n));
    }

    /// Find the value for `key`, or nullptr.  Never allocates.
    T* find(const Key& key) {
        std::size_t bucket;
        return find_bucket(key, bucket) ? &slots_[index_[bucket] - 1].value : nullptr;
    }
    const T* find(const Key& key) const {
        std::size_t bucket;
        return find_bucket(key, bucket) ? &slots_[index_[bucket] - 1].value : nullptr;
    }

    /// Insert `key` with a default-constructed value unless present.
    /// Returns {value, inserted}.  The pointer is invalidated by any
    /// later insert (slab growth); handles and slot indices are not.
    std::pair<T*, bool> try_emplace(const Key& key) {
        if (index_.empty() || (size_ + 1) * 2 > index_.size())
            rebuild_index(index_.empty() ? kMinIndex : index_.size() * 2);
        std::size_t bucket;
        if (find_bucket(key, bucket)) return {&slots_[index_[bucket] - 1].value, false};
        const std::uint32_t slot = acquire_slot(key);
        index_[bucket] = slot + 1;
        ++size_;
        return {&slots_[slot].value, true};
    }

    /// Erase `key` if present; backward-shift repair keeps the index
    /// tombstone-free.  Returns whether anything was erased.
    bool erase(const Key& key) {
        std::size_t bucket;
        if (!find_bucket(key, bucket)) return false;
        release_slot(index_[bucket] - 1);
        backward_shift(bucket);
        --size_;
        return true;
    }

    /// Handle for `key`, or 0 if absent.
    Handle handle_of(const Key& key) const {
        std::size_t bucket;
        if (!find_bucket(key, bucket)) return 0;
        const std::uint32_t slot = index_[bucket] - 1;
        return make_handle(slot, slots_[slot].gen);
    }

    /// Resolve a handle; nullptr if the entry was erased (any reuse of
    /// the slot bumped the generation, so stale handles stay dead).
    T* get(Handle h) {
        const std::uint32_t slot = static_cast<std::uint32_t>(h >> 32) - 1;
        if (slot >= slots_.size()) return nullptr;
        Slot& s = slots_[slot];
        if (s.gen != static_cast<std::uint32_t>(h) || (s.gen & 1u) == 0) return nullptr;
        return &s.value;
    }

    /// Slab view for sampling and iteration.  Slots [0, slot_count())
    /// include dead ones; check slot_live() first.
    std::size_t slot_count() const { return slots_.size(); }
    bool slot_live(std::size_t slot) const { return (slots_[slot].gen & 1u) != 0; }
    const Key& slot_key(std::size_t slot) const { return slots_[slot].key; }
    T& slot_value(std::size_t slot) { return slots_[slot].value; }
    const T& slot_value(std::size_t slot) const { return slots_[slot].value; }

    /// Visit every live entry as fn(key, value).  Do not insert or
    /// erase from inside fn; collect keys and mutate after (the server's
    /// sweep does exactly that).
    template <typename Fn>
    void for_each(Fn&& fn) {
        for (Slot& s : slots_)
            if ((s.gen & 1u) != 0) fn(static_cast<const Key&>(s.key), s.value);
    }
    template <typename Fn>
    void for_each(Fn&& fn) const {
        for (const Slot& s : slots_)
            if ((s.gen & 1u) != 0) fn(s.key, s.value);
    }

private:
    static constexpr std::size_t kMinIndex = 16;

    struct Slot {
        Key key{};
        T value{};
        std::uint32_t gen = 0;        // odd = live
        std::uint32_t next_free = 0;  // freelist link (slot + 1), 0 = end
    };

    static Handle make_handle(std::uint32_t slot, std::uint32_t gen) {
        return (static_cast<Handle>(slot + 1) << 32) | gen;
    }

    static std::size_t index_capacity_for(std::size_t n) {
        std::size_t cap = kMinIndex;
        while (n * 2 > cap) cap *= 2;
        return cap;
    }

    std::size_t home_bucket(const Key& key) const { return hash_(key) & (index_.size() - 1); }

    /// Locate `key`'s bucket; on miss, `bucket` is the empty bucket that
    /// terminates its probe chain (the insertion point).
    bool find_bucket(const Key& key, std::size_t& bucket) const {
        if (index_.empty()) {
            bucket = 0;
            return false;
        }
        const std::size_t mask = index_.size() - 1;
        std::size_t b = home_bucket(key);
        while (index_[b] != 0) {
            if (slots_[index_[b] - 1].key == key) {
                bucket = b;
                return true;
            }
            b = (b + 1) & mask;
        }
        bucket = b;
        return false;
    }

    std::uint32_t acquire_slot(const Key& key) {
        std::uint32_t slot;
        if (free_head_ != 0) {
            slot = free_head_ - 1;
            free_head_ = slots_[slot].next_free;
        } else {
            slot = static_cast<std::uint32_t>(slots_.size());
            slots_.emplace_back();
        }
        Slot& s = slots_[slot];
        s.key = key;
        s.gen |= 1u;  // even (dead) -> next odd (live)
        return slot;
    }

    void release_slot(std::uint32_t slot) {
        Slot& s = slots_[slot];
        assert((s.gen & 1u) != 0 && "releasing a dead slot");
        s.value = T{};  // drop the payload now, not at slot reuse
        s.gen += 1;     // odd -> even: every outstanding handle dies
        s.next_free = free_head_;
        free_head_ = slot + 1;
    }

    /// Backward-shift deletion: walk the cluster after `hole`, moving
    /// back any entry whose home bucket is outside (hole, current] --
    /// same invariant as PayloadStash's erase.
    void backward_shift(std::size_t hole) {
        const std::size_t mask = index_.size() - 1;
        std::size_t j = hole;
        for (;;) {
            j = (j + 1) & mask;
            if (index_[j] == 0) break;
            const std::size_t home = home_bucket(slots_[index_[j] - 1].key);
            if (((j - home) & mask) >= ((j - hole) & mask)) {
                index_[hole] = index_[j];
                hole = j;
            }
        }
        index_[hole] = 0;
    }

    void rebuild_index(std::size_t new_capacity) {
        index_.assign(new_capacity, 0);
        const std::size_t mask = new_capacity - 1;
        for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
            if ((slots_[slot].gen & 1u) == 0) continue;
            std::size_t b = hash_(slots_[slot].key) & mask;
            while (index_[b] != 0) b = (b + 1) & mask;
            index_[b] = slot + 1;
        }
    }

    Hash hash_{};
    std::vector<std::uint32_t> index_;  // bucket -> slot + 1, 0 = empty
    std::vector<Slot> slots_;           // contiguous slab, freelist-recycled
    std::uint32_t free_head_ = 0;       // slot + 1, 0 = none
    std::size_t size_ = 0;
};

}  // namespace bacp
