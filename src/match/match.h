/**
 * @file
 * The Match process (paper Section 4.1): before loading a new mini-batch,
 * intersect its node set with the batch currently resident on the GPU and
 * only ship the difference. Reuses the overlap in place — zero extra GPU
 * memory, because the previous batch's features are already resident.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr_graph.h"
#include "match/match_degree.h"

namespace fastgl {
namespace match {

/** The transfer plan for one mini-batch hand-over. */
struct TransferPlan
{
    /** Nodes shared with the resident batch (OverlapNodeID). */
    int64_t overlap_nodes = 0;
    /** Nodes whose features must cross PCIe (LoadNodeID). */
    std::vector<graph::NodeId> load_nodes;

    int64_t load_count() const { return int64_t(load_nodes.size()); }

    /** Feature bytes to ship given @p row_bytes per node. */
    uint64_t
    load_bytes(uint64_t row_bytes) const
    {
        return static_cast<uint64_t>(load_nodes.size()) * row_bytes;
    }
};

/**
 * Stateful matcher that remembers the batch resident on one GPU and plans
 * each successor's feature transfer.
 */
class Matcher
{
  public:
    Matcher() = default;

    /**
     * Plan the transfer for @p next given the currently resident batch.
     * The first call (nothing resident) loads everything. Afterwards
     * @p next is moved in as the resident batch.
     */
    TransferPlan plan(NodeSet next);

    /** Nodes currently resident (empty before the first plan). */
    const NodeSet &resident() const { return resident_; }

    /** Forget the resident batch (start of a fresh epoch/GPU). */
    void reset();

    /** Fraction of node loads avoided so far. */
    double
    reuse_fraction() const
    {
        const int64_t total = total_loaded_ + total_reused_;
        return total ? double(total_reused_) / double(total) : 0.0;
    }

  private:
    NodeSet resident_;
    bool has_resident_ = false;
    int64_t total_loaded_ = 0;
    int64_t total_reused_ = 0;
};

} // namespace match
} // namespace fastgl
