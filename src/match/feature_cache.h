/**
 * @file
 * Software-controlled GPU feature caches — the strategy of the PaGraph and
 * GNNLab baselines (paper Sections 2.3, 3.1, Fig. 10a).
 *
 * A portion of free device memory holds the features of "hot" nodes; a
 * batch node whose feature is cached skips the PCIe transfer. FastGL also
 * layers this cache on top of Match when memory is plentiful (Section 5).
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/csr_graph.h"

namespace fastgl {
namespace match {

/**
 * Rows a fill loop may mark resident out of a @p capacity_rows budget
 * and a @p ranking_rows -long hotness ranking: min of the two, clamped
 * non-negative. StaticFeatureCache and PartitionedFeatureCache both
 * size their fills through this one helper so the budget arithmetic
 * cannot drift between them.
 */
int64_t cache_fill_budget(int64_t capacity_rows, int64_t ranking_rows);

/**
 * Budget invariant shared by every cache tier: panics (FASTGL_CHECK)
 * unless 0 <= @p resident_rows <= max(0, @p capacity_rows). @p what
 * names the violating cache in the panic message.
 */
void check_cache_budget(int64_t resident_rows, int64_t capacity_rows,
                        const char *what);

/** How the static cache ranks node hotness. */
enum class CachePolicy
{
    kDegree,    ///< PaGraph: cache high-out-degree nodes.
    kPresample, ///< GNNLab: cache nodes most frequent in presampled batches.
};

/**
 * Static (fill-once) feature cache over a hotness ranking.
 *
 * Both PaGraph and GNNLab fill the cache before training and never evict;
 * the policies differ only in the ranking.
 */
class StaticFeatureCache
{
  public:
    /**
     * @param num_nodes   graph node count
     * @param ranking     node IDs from hottest to coldest (may be shorter
     *                    than num_nodes; unranked nodes are never cached)
     * @param capacity_rows number of feature rows that fit in the cache
     */
    StaticFeatureCache(graph::NodeId num_nodes,
                       const std::vector<graph::NodeId> &ranking,
                       int64_t capacity_rows);

    /** True when @p node's features are resident. */
    bool
    contains(graph::NodeId node) const
    {
        return cached_[static_cast<size_t>(node)];
    }

    /**
     * Count hits/misses of a batch node list; accumulates statistics.
     * Thread safe: the cache content is immutable after construction and
     * the statistics are atomic, so concurrent gather stages may share
     * one cache (the per-batch return value is unaffected by peers).
     * @return number of misses (rows that must cross PCIe).
     */
    int64_t lookup_batch(std::span<const graph::NodeId> nodes) const;

    /**
     * Publish externally tallied hit/miss counts into the statistics —
     * the accounting half of lookup_batch for callers that already
     * counted residency themselves (GatherEngine's fused gather pass
     * counts while copying, one record() per shard). Thread safe;
     * integer sums make the totals exact regardless of shard layout.
     */
    void
    record(int64_t hit, int64_t miss) const
    {
        hits_.fetch_add(hit, std::memory_order_relaxed);
        misses_.fetch_add(miss, std::memory_order_relaxed);
    }

    int64_t capacity_rows() const { return capacity_rows_; }

    /** Rows actually resident (<= capacity_rows(), budget-checked). */
    int64_t resident_rows() const { return resident_rows_; }

    /** Bytes the resident rows occupy at @p row_bytes per row. */
    uint64_t
    resident_bytes(uint64_t row_bytes) const
    {
        return static_cast<uint64_t>(resident_rows_) * row_bytes;
    }

    int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
    int64_t
    misses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }

    /** Hit fraction over all lookups so far. */
    double
    hit_rate() const
    {
        const int64_t total = hits() + misses();
        return total ? double(hits()) / double(total) : 0.0;
    }

    void
    reset_stats()
    {
        hits_.store(0, std::memory_order_relaxed);
        misses_.store(0, std::memory_order_relaxed);
    }

  private:
    std::vector<bool> cached_;
    int64_t capacity_rows_;
    int64_t resident_rows_ = 0;
    mutable std::atomic<int64_t> hits_{0};
    mutable std::atomic<int64_t> misses_{0};
};

/** PaGraph-style ranking: nodes sorted by descending degree. */
std::vector<graph::NodeId> degree_ranking(const graph::CsrGraph &graph);

/**
 * GNNLab-style ranking: presample @p epochs' worth of batches and rank
 * nodes by how often they appear (hotness). @p frequencies is typically
 * gathered by running the sampler over a few batches.
 */
std::vector<graph::NodeId>
presample_ranking(const std::vector<int64_t> &frequencies);

/**
 * presample_ranking from the sparse (uniques, counts) output of a
 * one-pass count-while-dedup sweep (sample::FrequencyHashmap), without
 * ever materialising the dense num_nodes-sized frequency array.
 * Bit-identical to the dense overload on the equivalent frequencies:
 * counted nodes by count descending (ties in ascending node-ID order),
 * then every never-counted node in ascending node-ID order.
 */
std::vector<graph::NodeId>
presample_ranking(std::span<const graph::NodeId> uniques,
                  std::span<const int64_t> counts,
                  graph::NodeId num_nodes);

/**
 * Per-node access frequencies recorded from a real workload — a
 * training epoch (core::Trainer with record_node_frequencies) or any
 * presample sweep. The serving tier warms its caches from one of
 * these instead of starting cold: presample_ranking(frequencies)
 * orders the StaticFeatureCache fill, and serve::Server seeds its
 * embedding caches with the head of that order (BGL's observation
 * that observed access frequency dominates cold LRU for GNN serving).
 */
struct WarmupTrace
{
    /** frequencies[node] = times the node appeared; size = num_nodes. */
    std::vector<int64_t> frequencies;

    bool empty() const { return frequencies.empty(); }
};

/**
 * Write @p trace to @p path in the versioned text format
 * ("fastgl-warmup-v1", one count per line).
 * @return false when the file cannot be written.
 */
bool save_warmup_trace(const std::string &path,
                       const WarmupTrace &trace);

/**
 * Read a warmup trace written by save_warmup_trace.
 * @return the trace; empty (and a warning is logged) when the file is
 *         missing or malformed: a negative count, or more or fewer
 *         entries than its header says.
 */
WarmupTrace load_warmup_trace(const std::string &path);

} // namespace match
} // namespace fastgl
