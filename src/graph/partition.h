/**
 * @file
 * Graph partitioning: the substrate for ClusterGCN-style partition
 * sampling and for the multi-machine extension (paper Section 7.1).
 *
 * Two partitioners are provided: a BFS block partitioner (cheap,
 * locality-preserving on ID-clustered graphs like R-MAT output) and a
 * streaming LDG (linear deterministic greedy) partitioner that balances
 * sizes while minimising cut edges.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr_graph.h"

namespace fastgl {
namespace graph {

/** A disjoint partition of the node set. */
struct Partitioning
{
    /** part_of[u] = partition index of node u. */
    std::vector<int32_t> part_of;
    /** members[p] = sorted node IDs of partition p. */
    std::vector<std::vector<NodeId>> members;

    int num_parts() const { return int(members.size()); }

    bool empty() const { return members.empty(); }

    /** Number of edges whose endpoints lie in different partitions. */
    int64_t count_cut_edges(const CsrGraph &graph) const;

    /** max(|part|) / (n / k): 1.0 is perfectly balanced. */
    double balance(const CsrGraph &graph) const;
};

/**
 * BFS partitioner: grow partitions by breadth-first traversal until each
 * holds ~n/k nodes. Deterministic for a given graph; disconnected
 * graphs restart the traversal from the lowest unassigned node, and
 * k > n leaves the surplus partitions empty (never a crash).
 */
Partitioning partition_bfs(const CsrGraph &graph, int num_parts);

/**
 * Streaming LDG partitioner: place each node (in degree-descending
 * order) into the partition holding most of its already-placed
 * neighbours, weighted by remaining capacity. Same edge-case contract
 * as partition_bfs.
 */
Partitioning partition_ldg(const CsrGraph &graph, int num_parts);

/** The two partitioners, for options plumbing (CLI, server, trainer). */
enum class PartitionerKind
{
    kBfs,
    kLdg,
};

/** Printable partitioner name ("bfs", "ldg"). */
const char *partitioner_name(PartitionerKind kind);

/** Dispatch to partition_bfs / partition_ldg by @p kind. */
Partitioning partition_graph(const CsrGraph &graph, int num_parts,
                             PartitionerKind kind);

/**
 * Write @p parts to @p path in the versioned text format
 * ("fastgl-partition-v1", one partition index per line) — the same
 * compute-once-reuse-everywhere shape as match::save_warmup_trace, so
 * an expensive partitioning is shared across train/serve/bench runs.
 * @return false when the file cannot be written.
 */
bool save_partitioning(const std::string &path,
                       const Partitioning &parts);

/**
 * Read a partitioning written by save_partitioning; members lists are
 * rebuilt from the assignment vector.
 * @return the partitioning; empty (and a warning is logged) when the
 *         file is missing, malformed, holds an out-of-range index,
 *         declares more than 65536 parts, or holds more or fewer
 *         entries than its header says.
 */
Partitioning load_partitioning(const std::string &path);

} // namespace graph
} // namespace fastgl
