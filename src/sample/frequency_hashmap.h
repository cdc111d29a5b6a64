/**
 * @file
 * One-pass count-while-dedup frequency map over the Fused-Map table.
 *
 * The presample phases (core::Pipeline::build_cache, core::Trainer's
 * cache presample) historically made two passes over the presampled node
 * stream: a dense num_nodes-sized frequency array updated per
 * occurrence, then a full-graph sort to rank hotness. FrequencyHashmap
 * collapses the counting side into the dedup pass the sampler already
 * does: one sweep over the stream emits BOTH the deduped node set
 * (first-seen order, exactly what FusedHashTable::insert assigns) and
 * the per-unique occurrence counts, sized to the stream instead of the
 * graph. match::presample_ranking's sparse overload then produces a
 * ranking bit-identical to the dense two-pass.
 *
 * Counting rides on the local IDs the table assigns: sequential
 * insertion makes local ID == index into uniques()/counts(), so each
 * occurrence costs one fused insert-and-translate walk plus either an
 * increment (repeat) or two push_backs (fresh). Not thread safe (single
 * caller, like the presample loops it serves).
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.h"
#include "sample/fused_hash_table.h"

namespace fastgl {
namespace sample {

/** Count-while-dedup frequency map; see file comment. */
class FrequencyHashmap
{
  public:
    /** @param capacity_hint expected stream length (instances). */
    explicit FrequencyHashmap(size_t capacity_hint);

    /** Count one occurrence of @p node. @return true when first seen. */
    bool add(graph::NodeId node);

    /** add() every element of @p stream in order. */
    void add_stream(std::span<const graph::NodeId> stream);

    /** Deduped nodes in first-seen order. */
    std::span<const graph::NodeId>
    uniques() const
    {
        return uniques_;
    }

    /** counts()[i] = occurrences of uniques()[i]; same length. */
    std::span<const int64_t>
    counts() const
    {
        return counts_;
    }

    /** Unique node count. */
    int64_t size() const { return static_cast<int64_t>(uniques_.size()); }

    /** Total occurrences counted since the last reset. */
    int64_t total() const { return total_; }

    /** Clear all counts; re-sizes if @p capacity_hint grew. */
    void reset(size_t capacity_hint);

    /**
     * Expand to a dense frequency array (frequencies[node] = count,
     * zero for unseen) — the exact input the legacy two-pass presample
     * built; kept for the equivalence tests and trace export.
     */
    std::vector<int64_t> dense_frequencies(graph::NodeId num_nodes) const;

  private:
    FusedHashTable table_;
    std::vector<graph::NodeId> uniques_;
    std::vector<int64_t> counts_;
    int64_t total_ = 0;
};

} // namespace sample
} // namespace fastgl
