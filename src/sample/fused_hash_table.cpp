#include "sample/fused_hash_table.h"

#include <atomic>

#include "util/logging.h"

namespace fastgl {
namespace sample {

namespace {

constexpr graph::NodeId kEmptyKey = -1;

size_t
next_pow2(size_t n)
{
    size_t p = 16;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

FusedHashTable::FusedHashTable(size_t capacity_hint)
{
    reset(capacity_hint);
}

void
FusedHashTable::reset(size_t capacity_hint)
{
    const size_t slots = next_pow2(capacity_hint * 2 + 1);
    if (slots != slots_.size()) {
        slots_.assign(slots, Slot{kEmptyKey, 0});
        mask_ = slots - 1;
    } else if (untracked_) {
        for (Slot &slot : slots_)
            slot.key = kEmptyKey;
    } else {
        // Only the slots fresh inserts filled need emptying.
        for (size_t index : touched_)
            slots_[index].key = kEmptyKey;
    }
    // Values need no sweep: a slot's value is only read after its key
    // matched, and every claim writes the value (see lookup()).
    touched_.clear();
    untracked_ = false;
    next_local_ = 0;
    probes_ = 0;
}

FusedHashTable::Slot &
FusedHashTable::find_or_claim(graph::NodeId global, uint64_t &walk)
{
    FASTGL_CHECK(global >= 0, "negative global ID");
    size_t index = slot_for(global);
    for (uint64_t steps = 1;; ++steps) {
        Slot &slot = slots_[index];
        if (slot.key == global) {
            // Flag == True: the ID is already mapped.
            walk += steps;
            return slot;
        }
        if (slot.key == kEmptyKey) {
            // Flag == False: claim the slot and draw the next local ID
            // (Algorithm 2 lines 13 and 28-29).
            slot.key = global;
            slot.value = next_local_++;
            touched_.push_back(index);
            walk += steps;
            return slot;
        }
        // Conflict: linear probing (line 20).
        index = (index + 1) & mask_;
        FASTGL_CHECK(steps < slots_.size(),
                     "hash table is full — capacity hint too small");
    }
}

bool
FusedHashTable::insert(graph::NodeId global)
{
    const int64_t before = next_local_;
    find_or_claim(global, probes_);
    return next_local_ != before;
}

graph::NodeId
FusedHashTable::insert_translate(graph::NodeId global)
{
    uint64_t walk = 0;
    const Slot &slot = find_or_claim(global, walk);
    probes_ += 2 * walk;
    return slot.value;
}

void
FusedHashTable::insert_stream(std::span<const graph::NodeId> stream)
{
    for (graph::NodeId global : stream)
        insert(global);
}

void
FusedHashTable::insert_concurrent(graph::NodeId global)
{
    FASTGL_CHECK(global >= 0, "negative global ID");
    size_t index = slot_for(global);
    for (uint64_t steps = 1;; ++steps) {
        Slot &slot = slots_[index];
        std::atomic_ref<graph::NodeId> key(slot.key);
        // Cheap test before the CAS: most probes land on an already
        // claimed slot (duplicate instances), and a plain acquire load
        // avoids the atomic RMW. Keys are write-once, so a non-empty
        // observation is final and the walk is the CAS-only one.
        graph::NodeId seen = key.load(std::memory_order_acquire);
        if (seen == kEmptyKey) {
            graph::NodeId expected = kEmptyKey;
            // Algorithm 2 line 13:
            // Val = atomicCAS(HashIndex, -1, GlobalID).
            if (key.compare_exchange_strong(expected, global,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
                // Flag == False: fresh insertion — draw the next local
                // ID (line 28-29: value <- LocalID; atomicAdd(...)).
                const int64_t local =
                    std::atomic_ref<int64_t>(next_local_)
                        .fetch_add(1, std::memory_order_acq_rel);
                std::atomic_ref<int64_t>(slot.value)
                    .store(local, std::memory_order_release);
                std::atomic_ref<uint64_t>(probes_).fetch_add(
                    steps, std::memory_order_relaxed);
                return;
            }
            seen = expected; // Lost the race; expected holds the owner.
        }
        if (seen == global) {
            // Flag == True: another thread owns this global ID; no-op.
            std::atomic_ref<uint64_t>(probes_).fetch_add(
                steps, std::memory_order_relaxed);
            return;
        }
        // Conflict: linear probing (line 20).
        index = (index + 1) & mask_;
        FASTGL_CHECK(steps < slots_.size(),
                     "hash table is full — capacity hint too small");
    }
}

void
FusedHashTable::insert_stream_parallel(
    std::span<const graph::NodeId> stream, util::ThreadPool &pool)
{
    // Workers cannot share touched_, so the next reset() sweeps.
    untracked_ = true;
    pool.parallel_for(stream.size(), [this, stream](size_t begin,
                                                    size_t end) {
        for (size_t i = begin; i < end; ++i)
            insert_concurrent(stream[i]);
    });
}

graph::NodeId
FusedHashTable::lookup(graph::NodeId global) const
{
    size_t index = slot_for(global);
    for (uint64_t steps = 1;; ++steps) {
        const Slot &slot = slots_[index];
        if (slot.key == global) {
            probes_ += steps;
            return slot.value;
        }
        if (slot.key == kEmptyKey) {
            probes_ += steps;
            return graph::kInvalidNode;
        }
        index = (index + 1) & mask_;
        if (steps >= slots_.size())
            return graph::kInvalidNode;
    }
}

std::vector<graph::NodeId>
FusedHashTable::local_to_global() const
{
    std::vector<graph::NodeId> result(static_cast<size_t>(size()),
                                      graph::kInvalidNode);
    if (!untracked_) {
        // Sequential claims drew local IDs in touched_ order.
        for (size_t local = 0; local < result.size(); ++local)
            result[local] = slots_[touched_[local]].key;
        return result;
    }
    for (const Slot &slot : slots_) {
        if (slot.key != kEmptyKey) {
            FASTGL_CHECK(slot.value >= 0 &&
                             slot.value < static_cast<int64_t>(result.size()),
                         "local ID out of range");
            result[static_cast<size_t>(slot.value)] = slot.key;
        }
    }
    return result;
}

} // namespace sample
} // namespace fastgl
