/**
 * @file
 * Global-to-local ID map — the paper's Fused-Map (Algorithm 2).
 *
 * The table fuses hash-table construction with local-ID assignment in one
 * pass: claiming an empty slot for a global ID (linear probing on
 * conflict) draws the next dense local ID. The translate step
 * (global->local) follows, as the paper launches a second kernel after
 * construction.
 *
 * Every sampler instance is the only writer of its table, so the
 * per-sampler path uses plain loads and stores on one interleaved
 * {key, value} slot array, and insert_translate() fuses the insert with
 * its translate in a single probe walk. insert_stream_parallel() is
 * Algorithm 2's genuinely concurrent path: compare-and-swap on the same
 * slots through std::atomic_ref; the property tests insert from many
 * threads and verify the result is a dense bijection. Probe counts are
 * recorded and fed to sim::KernelModel to produce the modelled GPU
 * latency.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.h"
#include "util/thread_pool.h"

namespace fastgl {
namespace sample {

/** Open-addressing insert-only hash map assigning dense local IDs. */
class FusedHashTable
{
  public:
    /**
     * @param capacity_hint expected number of *instances*; the slot count
     *        is the next power of two of twice this value, bounding the
     *        load factor at 0.5 even if every instance were unique.
     */
    explicit FusedHashTable(size_t capacity_hint);

    /**
     * Clear all entries; re-sizes if @p capacity_hint grew. Clears only
     * the slots sequential inserts filled, unless the last fill was
     * insert_stream_parallel, whose claims are not recorded.
     */
    void reset(size_t capacity_hint);

    /**
     * Insert-or-find @p global (Algorithm 2 Fused_Map). Single writer:
     * must not run concurrently with any other call.
     * @return true when this call created the entry (Flag == False path).
     */
    bool insert(graph::NodeId global);

    /**
     * insert() followed by lookup() of the same ID, in one probe walk.
     * An insert-only linear-probe table never moves a key, so the
     * lookup would walk exactly the insert's path; the call counts both
     * walks, leaving probes() identical to the two-call form.
     * Single writer, like insert().
     * @return the local ID of @p global; it equals the table's size()
     *         before the call exactly when the entry is fresh.
     */
    graph::NodeId insert_translate(graph::NodeId global);

    /** Insert a whole stream sequentially. */
    void insert_stream(std::span<const graph::NodeId> stream);

    /**
     * Insert a stream with genuine concurrency via @p pool: every
     * worker claims slots by compare-and-swap, so local IDs follow the
     * race, not the stream order.
     */
    void insert_stream_parallel(std::span<const graph::NodeId> stream,
                                util::ThreadPool &pool);

    /**
     * Translate a global ID to its local ID. Must not run concurrently
     * with inserts (the paper's second kernel): a claimed slot's value
     * is only valid once the insert phase has quiesced, since reset()
     * does not sweep values.
     * @return local ID, or graph::kInvalidNode when absent.
     */
    graph::NodeId lookup(graph::NodeId global) const;

    /** Number of unique IDs inserted, i.e. the next local ID. */
    int64_t size() const { return next_local_; }

    /** Total linear probes performed by all insert/lookup calls. */
    uint64_t probes() const { return probes_; }

    /** Slot count (power of two). */
    size_t capacity() const { return slots_.size(); }

    /**
     * Local-to-global table: result[local] = global. Requires quiescence.
     */
    std::vector<graph::NodeId> local_to_global() const;

  private:
    struct Slot
    {
        graph::NodeId key;
        int64_t value;
    };

    /** Finalizer-style hash spreading global IDs across slots. */
    size_t
    slot_for(graph::NodeId global) const
    {
        uint64_t x = static_cast<uint64_t>(global);
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
        x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
        return static_cast<size_t>(x ^ (x >> 31)) & mask_;
    }

    /**
     * Single-writer walk: the slot holding @p global, claimed (with the
     * next local ID) if absent. Adds the walk's length to @p walk.
     */
    Slot &find_or_claim(graph::NodeId global, uint64_t &walk);

    /** insert() through atomic_ref, for insert_stream_parallel. */
    void insert_concurrent(graph::NodeId global);

    std::vector<Slot> slots_;
    int64_t next_local_ = 0;
    mutable uint64_t probes_ = 0;
    size_t mask_ = 0;
    /**
     * Slot of each sequential fresh insert, in local-ID order: reset()
     * empties just these, and local_to_global() reads them.
     */
    std::vector<size_t> touched_;
    /** A parallel fill left claims touched_ does not list. */
    bool untracked_ = false;
};

} // namespace sample
} // namespace fastgl
