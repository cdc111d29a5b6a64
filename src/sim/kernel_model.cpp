#include "sim/kernel_model.h"

#include <algorithm>

#include "util/logging.h"

namespace fastgl {
namespace sim {

namespace {

// Calibrated per-operation costs. These are the only free constants in the
// model; they were chosen so the end-to-end ratios land inside the paper's
// reported ranges (Table 8 ID-map ratio 2.1-2.7x, Fig. 13 sampling, Fig. 11
// compute) and are documented in EXPERIMENTS.md.
constexpr double kGpuHashProbeSeconds = 0.8e-9;   // amortised atomicCAS probe
constexpr double kGpuSyncPerInstanceSeconds = 2.6e-9; // DGL per-instance sync
constexpr double kGpuSyncPerUniqueSeconds = 6.0e-9;   // local-ID ordering
constexpr double kGpuLocalIdAtomicSeconds = 1.5e-9;   // atomicAdd serialised
constexpr double kCpuMapPerInstanceSeconds = 60e-9;   // PyG dict/sort map
constexpr double kGpuSamplePerEdgeSeconds = 0.35e-9;  // CSR lookup + RNG
constexpr double kCpuSamplePerEdgeSeconds = 60e-9;    // Python-loop traversal
constexpr double kAdvisorPreprocPerEdgeSeconds = 2.2e-9;
constexpr double kAdvisorPreprocPerNodeSeconds = 6.0e-9;
constexpr double kGemmEfficiency = 0.55;          // achievable peak fraction

} // namespace

KernelCost
KernelModel::aggregation_naive(const AggregationWorkload &w,
                               double l1_hit, double l2_hit) const
{
    // Eq. 3: per target u, 4(|N|-1)d partial-sum reads + 4|N|d weight reads
    // + 4|N|d feature reads, all from global memory. Summed over targets:
    const double d = w.feature_dim;
    const double bytes =
        4.0 * (double(w.num_edges) - double(w.num_targets)) * d + // psums
        4.0 * double(w.num_edges) * d +                           // weights
        4.0 * double(w.num_edges) * d;                            // features
    // Irregular access degrades the hierarchy: the measured hit rates give
    // the achievable bandwidth; uncoalesced lines further waste a fraction
    // of each 128B line (sparse gathers touch ~32 useful bytes per line).
    const double line_utilisation = 0.45;
    const double bw =
        spec_.effective_bandwidth(l1_hit, l2_hit) * line_utilisation;
    const double mem_time = bytes / bw;
    const double flop_time = w.flops() / spec_.peak_flops;
    KernelCost cost;
    cost.bytes = bytes;
    cost.flops = w.flops();
    cost.seconds =
        std::max(mem_time, flop_time) + spec_.kernel_launch_latency;
    return cost;
}

KernelCost
KernelModel::aggregation_memory_aware(const AggregationWorkload &w,
                                      const BlockGeometry &geometry,
                                      double avg_degree,
                                      double l1_hit, double l2_hit) const
{
    FASTGL_CHECK(geometry.threads() <= spec_.max_threads_per_block,
                 "X*Y exceeds the 1024-thread block limit");
    if (geometry.shared_bytes(avg_degree) > spec_.shared_limit_per_block) {
        // Shared footprint too large: the kernel cannot launch with this
        // geometry, fall back to the naive path (Section 4.2 requires X,Y
        // to satisfy the hardware limit).
        return aggregation_naive(w, l1_hit, l2_hit);
    }
    // Eq. 4: partial sums and weights served from shared memory, source
    // features from global memory.
    const double d = w.feature_dim;
    const double shared_bytes =
        4.0 * (double(w.num_edges) - double(w.num_targets)) * d +
        4.0 * double(w.num_edges) * (d - 1.0);
    const double global_bytes =
        4.0 * double(w.num_edges) * d + 4.0 * double(w.num_edges);
    // Feature reads remain sparse gathers, but grouping X targets per block
    // coalesces repeated source rows; utilisation improves over naive.
    const double line_utilisation = 0.70;
    const double mem_time =
        shared_bytes / spec_.l1_bw +
        global_bytes / (spec_.global_bw * line_utilisation);
    const double flop_time = w.flops() / spec_.peak_flops;
    KernelCost cost;
    cost.bytes = shared_bytes + global_bytes;
    cost.flops = w.flops();
    cost.seconds =
        std::max(mem_time, flop_time) + spec_.kernel_launch_latency;
    return cost;
}

KernelCost
KernelModel::gemm(int64_t m, int64_t n, int64_t k) const
{
    KernelCost cost;
    cost.flops = 2.0 * double(m) * double(n) * double(k);
    cost.bytes = 4.0 * (double(m) * k + double(k) * n + double(m) * n);
    const double flop_time =
        cost.flops / (spec_.peak_flops * kGemmEfficiency);
    const double mem_time = cost.bytes / spec_.global_bw;
    cost.seconds =
        std::max(flop_time, mem_time) + spec_.kernel_launch_latency;
    return cost;
}

KernelCost
KernelModel::elementwise(int64_t elements) const
{
    KernelCost cost;
    cost.flops = double(elements);
    cost.bytes = 8.0 * double(elements); // read + write
    cost.seconds =
        cost.bytes / spec_.global_bw + spec_.kernel_launch_latency;
    return cost;
}

double
KernelModel::id_map_sync(const IdMapWorkload &w) const
{
    // DGL's three-step map (Fig. 4): build hash table, compute local IDs
    // with per-instance synchronization, then translate. The middle step's
    // synchronizations dominate (Section 3.3).
    const double probe_time = double(w.probes) * kGpuHashProbeSeconds;
    // Duplicate detection synchronizes per sampled instance; assigning
    // consecutive local IDs additionally serializes per unique node.
    const double sync_time =
        double(w.instances) * kGpuSyncPerInstanceSeconds +
        double(w.uniques) * kGpuSyncPerUniqueSeconds;
    const double assign_time =
        double(w.uniques) * kGpuLocalIdAtomicSeconds;
    const double translate_time =
        double(w.instances) * kGpuHashProbeSeconds;
    return 3.0 * spec_.kernel_launch_latency + probe_time + sync_time +
           assign_time + translate_time;
}

double
KernelModel::id_map_fused(const IdMapWorkload &w) const
{
    // Algorithm 2: one fused kernel performs insertion + local-ID
    // assignment with atomics only, plus the translate kernel.
    const double probe_time = double(w.probes) * kGpuHashProbeSeconds;
    const double assign_time =
        double(w.uniques) * kGpuLocalIdAtomicSeconds;
    const double translate_time =
        double(w.instances) * kGpuHashProbeSeconds;
    return 2.0 * spec_.kernel_launch_latency + probe_time + assign_time +
           translate_time;
}

double
KernelModel::id_map_cpu(const IdMapWorkload &w) const
{
    return double(w.instances + w.uniques) * kCpuMapPerInstanceSeconds;
}

double
KernelModel::sample_gpu(int64_t edges_examined) const
{
    return spec_.kernel_launch_latency +
           double(edges_examined) * kGpuSamplePerEdgeSeconds;
}

double
KernelModel::sample_cpu(int64_t edges_examined) const
{
    return double(edges_examined) * kCpuSamplePerEdgeSeconds;
}

double
KernelModel::preprocess_gnnadvisor(int64_t nodes, int64_t edges) const
{
    return double(edges) * kAdvisorPreprocPerEdgeSeconds +
           double(nodes) * kAdvisorPreprocPerNodeSeconds +
           spec_.kernel_launch_latency;
}

double
KernelModel::allreduce(uint64_t param_bytes, int gpus) const
{
    if (gpus <= 1)
        return 0.0;
    // Ring allreduce over the shared PCIe fabric: 2(n-1)/n of the payload
    // crosses the link per GPU, with a per-step latency.
    const double steps = 2.0 * (gpus - 1);
    const double payload =
        2.0 * double(param_bytes) * (gpus - 1) / double(gpus);
    return payload / spec_.pcie_bw + steps * spec_.pcie_latency;
}

double
KernelModel::host_transfer(uint64_t bytes, uint64_t feature_bytes,
                           double contention) const
{
    return spec_.pcie_latency +
           contention * double(bytes) / spec_.pcie_bw +
           contention * double(feature_bytes) / spec_.host_gather_bw;
}

} // namespace sim
} // namespace fastgl
