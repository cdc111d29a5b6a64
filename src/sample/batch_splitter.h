/**
 * @file
 * Splits the training nodes into shuffled mini-batches, one epoch at a
 * time (paper Section 2.2: "splits the training nodes into multiple
 * mini-batches").
 */
#pragma once

#include <span>
#include <vector>

#include "graph/csr_graph.h"
#include "util/rng.h"

namespace fastgl {
namespace sample {

/** Deterministic shuffled batch iterator over a node list. */
class BatchSplitter
{
  public:
    /**
     * @param train_nodes node IDs to split (copied)
     * @param batch_size  nodes per batch; the final batch may be smaller
     * @param seed        shuffle seed
     */
    BatchSplitter(std::vector<graph::NodeId> train_nodes,
                  int64_t batch_size, uint64_t seed);

    /** Number of batches per epoch. */
    int64_t num_batches() const;

    /** Re-shuffle for a new epoch (call once per epoch). */
    void shuffle_epoch();

    /** The @p index-th batch of the current epoch. */
    std::span<const graph::NodeId> batch(int64_t index) const;

    /** The current epoch's order; batch i is its i-th slice. */
    std::span<const graph::NodeId> nodes() const { return nodes_; }

    int64_t batch_size() const { return batch_size_; }
    int64_t num_nodes() const { return int64_t(nodes_.size()); }

  private:
    std::vector<graph::NodeId> nodes_;
    int64_t batch_size_;
    util::Rng rng_;
};

} // namespace sample
} // namespace fastgl
