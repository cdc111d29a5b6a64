/**
 * @file
 * Converts measured algorithm counts into modelled GPU kernel latencies.
 *
 * Every formula here mirrors the paper's own analysis:
 *  - naive aggregation time follows Eq. 3 with the effective bandwidth
 *    produced by the measured L1/L2 hit rates (Table 2);
 *  - Memory-Aware aggregation time follows Eq. 4 with partial sums and
 *    edge weights served from shared memory (Section 4.2);
 *  - ID-map times are charged per hash probe / per thread synchronization
 *    (Section 4.3, Table 8);
 *  - sampling is charged per examined edge at CPU or GPU throughput.
 */
#pragma once

#include <cstdint>

#include "sim/gpu_spec.h"

namespace fastgl {
namespace sim {

/** Counts describing one aggregation launch (one layer direction). */
struct AggregationWorkload
{
    int64_t num_targets = 0;   ///< Nodes being aggregated into.
    int64_t num_edges = 0;     ///< Sum of |N(u)| over targets.
    int feature_dim = 0;       ///< d in Eq. 1.

    /** FMA flop count: one multiply-add per edge per dimension. */
    double flops() const { return 2.0 * double(num_edges) * feature_dim; }
};

/** Thread-block geometry for the Memory-Aware kernel (Section 4.2). */
struct BlockGeometry
{
    int targets_per_block = 8;   ///< X in the paper.
    int dims_per_block = 32;     ///< Y in the paper.

    /** X*Y must not exceed the 1024-thread hardware limit. */
    int threads() const { return targets_per_block * dims_per_block; }

    /**
     * Shared bytes needed per block: 4XY partial sums + 4X*avg_deg weights
     * (paper's 4XY + 4X|N(u)| with |N(u)| its average).
     */
    uint64_t
    shared_bytes(double avg_degree) const
    {
        return 4ull * targets_per_block * dims_per_block +
               static_cast<uint64_t>(4.0 * targets_per_block * avg_degree);
    }
};

/** Counts describing one ID-map launch (Section 4.3). */
struct IdMapWorkload
{
    int64_t instances = 0;   ///< Sampled node instances incl. duplicates.
    int64_t uniques = 0;     ///< Distinct global IDs (local-ID count).
    int64_t probes = 0;      ///< Hash probes actually performed (measured).
};

/** Result of a modelled kernel: time plus achieved throughput. */
struct KernelCost
{
    double seconds = 0.0;
    double flops = 0.0;
    double bytes = 0.0;

    /** Achieved GFLOP/s. */
    double
    gflops() const
    {
        return seconds > 0.0 ? flops / seconds / 1e9 : 0.0;
    }
};

/** Stateless latency calculator for a given GPU. */
class KernelModel
{
  public:
    explicit KernelModel(const GpuSpec &spec) : spec_(spec) {}

    const GpuSpec &spec() const { return spec_; }

    /**
     * Naive aggregation (DGL/PyG style): Eq. 3 byte volume served at the
     * hierarchy bandwidth implied by the measured hit rates.
     */
    KernelCost aggregation_naive(const AggregationWorkload &w,
                                 double l1_hit, double l2_hit) const;

    /**
     * Memory-Aware aggregation: Eq. 4 byte split between shared and global
     * memory. Falls back to the naive path when the geometry's shared
     * footprint exceeds the hardware limit.
     * @param avg_degree average |N(u)| of this launch, for the smem bound.
     */
    KernelCost aggregation_memory_aware(const AggregationWorkload &w,
                                        const BlockGeometry &geometry,
                                        double avg_degree,
                                        double l1_hit, double l2_hit) const;

    /** Dense update GEMM: [m x k] * [k x n]. */
    KernelCost gemm(int64_t m, int64_t n, int64_t k) const;

    /** Elementwise op over @p elements floats (bias/ReLU/etc). */
    KernelCost elementwise(int64_t elements) const;

    /**
     * DGL-style ID map: hash build + local-ID pass with one thread
     * synchronization event per duplicate-laden instance (Section 3.3).
     */
    double id_map_sync(const IdMapWorkload &w) const;

    /** Fused-Map ID map: single fused kernel, no synchronizations. */
    double id_map_fused(const IdMapWorkload &w) const;

    /** PyG-style CPU ID map (sorting/dictionary based). */
    double id_map_cpu(const IdMapWorkload &w) const;

    /** Neighbour sampling on GPU: @p edges_examined CSR lookups + RNG. */
    double sample_gpu(int64_t edges_examined) const;

    /** Neighbour sampling on CPU (PyG). */
    double sample_cpu(int64_t edges_examined) const;

    /**
     * GNNAdvisor per-iteration preprocessing (neighbour grouping + 2D
     * workload mapping); proportional to subgraph size (Section 6.3).
     */
    double preprocess_gnnadvisor(int64_t nodes, int64_t edges) const;

    /**
     * Ring allreduce of @p param_bytes across @p gpus over the host link
     * (RTX 3090 has no NVLink).
     */
    double allreduce(uint64_t param_bytes, int gpus) const;

    /**
     * The one host->device transfer formula of every batch-cost path:
     * latency + c*bytes/pcie_bw (DMA of features + topology) +
     * c*feature_bytes/host_gather_bw (host gather into the pinned
     * buffer), left to right, c = @p contention of trainer GPUs sharing
     * host bandwidth. Callers add peer and storage seconds after it.
     */
    double host_transfer(uint64_t bytes, uint64_t feature_bytes,
                         double contention = 1.0) const;

  private:
    GpuSpec spec_;
};

} // namespace sim
} // namespace fastgl
