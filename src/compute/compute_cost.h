/**
 * @file
 * Compute-phase cost model: converts a model configuration plus a sampled
 * subgraph's measured shape into modelled forward/backward GPU time under
 * one of three execution plans (paper Table 5's "Computation Optimization"
 * column): naive (DGL/PyG), Memory-Aware (FastGL), or GNNAdvisor's 2D
 * workload management with its per-iteration preprocessing.
 */
#pragma once

#include "compute/gnn_model.h"
#include "sample/minibatch.h"
#include "sim/kernel_model.h"

namespace fastgl {
namespace compute {

/** Execution plan of the aggregation kernels. */
enum class ComputePlan
{
    kNaive,       ///< Everything in global memory (DGL, PyG).
    kMemoryAware, ///< Paper Section 4.2: psums + weights in shared memory.
    kGnnAdvisor,  ///< 2D workload management + per-iteration preprocess.
};

/** Printable plan name. */
const char *compute_plan_name(ComputePlan plan);

/** Modelled cost of one training step's compute phase. */
struct ComputeCost
{
    double forward = 0.0;
    double backward = 0.0;
    double preprocess = 0.0; ///< Nonzero only for GNNAdvisor.
    double agg_forward_flops = 0.0;
    double agg_forward_bytes = 0.0;
    /** 2*m*n*k summed over the backward GEMMs charged. */
    double backward_gemm_flops = 0.0;
    int64_t backward_gemm_calls = 0; ///< Backward GEMMs charged.
    int64_t backward_agg_calls = 0;  ///< Backward aggregations charged.
    int64_t backward_agg_edges = 0;  ///< Edges of those aggregations.

    double total() const { return forward + backward + preprocess; }
};

/** Cost model parameterised by GPU spec, plan and cache behaviour. */
class ComputeCostModel
{
  public:
    /**
     * @param spec   device constants
     * @param plan   aggregation execution plan
     * @param l1_hit measured (or assumed) naive-kernel L1 hit rate
     * @param l2_hit measured L2 hit rate
     */
    ComputeCostModel(const sim::GpuSpec &spec, ComputePlan plan,
                     double l1_hit = 0.045, double l2_hit = 0.196);

    /** Full forward+backward compute time for one mini-batch. */
    ComputeCost training_step(const ModelConfig &model,
                              const sample::SampledSubgraph &sg) const;

    /**
     * Cost of a single aggregation launch under this plan (used by the
     * roofline benchmark, Fig. 12).
     */
    sim::KernelCost aggregation_cost(const sample::LayerBlock &block,
                                     int feature_dim) const;

    ComputePlan plan() const { return plan_; }
    const sim::KernelModel &kernel_model() const { return kernels_; }

  private:
    sim::KernelModel kernels_;
    ComputePlan plan_;
    double l1_hit_;
    double l2_hit_;
    sim::BlockGeometry geometry_; ///< Paper's X=8, Y=32.
};

} // namespace compute
} // namespace fastgl
