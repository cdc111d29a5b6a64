#include "compute/compute_cost.h"

#include "util/logging.h"

namespace fastgl {
namespace compute {

const char *
compute_plan_name(ComputePlan plan)
{
    switch (plan) {
      case ComputePlan::kNaive:       return "naive";
      case ComputePlan::kMemoryAware: return "memory-aware";
      case ComputePlan::kGnnAdvisor:  return "gnnadvisor";
    }
    return "?";
}

ComputeCostModel::ComputeCostModel(const sim::GpuSpec &spec,
                                   ComputePlan plan, double l1_hit,
                                   double l2_hit)
    : kernels_(spec), plan_(plan), l1_hit_(l1_hit), l2_hit_(l2_hit)
{
}

sim::KernelCost
ComputeCostModel::aggregation_cost(const sample::LayerBlock &block,
                                   int feature_dim) const
{
    sim::AggregationWorkload w;
    w.num_targets = block.num_targets();
    w.num_edges = block.num_edges();
    w.feature_dim = feature_dim;
    switch (plan_) {
      case ComputePlan::kMemoryAware:
        return kernels_.aggregation_memory_aware(
            w, geometry_, block.avg_degree(), l1_hit_, l2_hit_);
      case ComputePlan::kGnnAdvisor: {
        // 2D workload management improves coalescing but keeps all data
        // in global memory: model as naive with better line utilisation.
        sim::KernelCost cost =
            kernels_.aggregation_naive(w, l1_hit_, l2_hit_);
        cost.seconds *= 0.72;
        return cost;
      }
      case ComputePlan::kNaive:
      default:
        return kernels_.aggregation_naive(w, l1_hit_, l2_hit_);
    }
}

ComputeCost
ComputeCostModel::training_step(const ModelConfig &model,
                                const sample::SampledSubgraph &sg) const
{
    FASTGL_CHECK(int(sg.blocks.size()) == model.num_layers,
                 "hop count != layer count");
    ComputeCost cost;
    const auto backward_gemm = [&](int64_t m, int64_t n, int64_t k) {
        const sim::KernelCost gemm = kernels_.gemm(m, n, k);
        cost.backward_gemm_flops += gemm.flops;
        ++cost.backward_gemm_calls;
        return gemm.seconds;
    };
    const auto backward_agg = [&](const sample::LayerBlock &block,
                                  int64_t dim) {
        cost.backward_agg_edges += block.num_edges();
        ++cost.backward_agg_calls;
        return aggregation_cost(block, static_cast<int>(dim)).seconds;
    };

    for (int l = 0; l < model.num_layers; ++l) {
        const auto &block =
            sg.blocks[static_cast<size_t>(model.num_layers - 1 - l)];
        const bool is_output = (l == model.num_layers - 1);
        const int64_t in_dim =
            (l == 0) ? model.in_dim
                     : (model.type == ModelType::kGat
                            ? int64_t(model.gat_heads) * model.gat_head_dim
                            : model.hidden_dim);
        const int64_t out_dim =
            is_output ? model.num_classes
                      : (model.type == ModelType::kGat
                             ? int64_t(model.gat_heads) * model.gat_head_dim
                             : model.hidden_dim);
        const int64_t targets = block.num_targets();
        const int64_t edges = block.num_edges();
        // Source rows = nodes visible to this layer; bounded by subgraph.
        const int64_t src_rows =
            std::min<int64_t>(sg.num_nodes(), targets + edges);

        // ---- Forward ----
        if (model.type == ModelType::kGat) {
            // Projection over source rows, attention scores per edge,
            // aggregation at head granularity.
            cost.forward +=
                kernels_.gemm(src_rows, out_dim, in_dim).seconds;
            cost.forward +=
                kernels_.elementwise(edges * model.gat_heads).seconds;
            const auto agg = aggregation_cost(
                block, static_cast<int>(out_dim));
            cost.forward += agg.seconds;
            if (l == 0) {
                cost.agg_forward_flops += agg.flops;
                cost.agg_forward_bytes += agg.bytes;
            }
        } else {
            const auto agg =
                aggregation_cost(block, static_cast<int>(in_dim));
            cost.forward += agg.seconds;
            if (l == 0) {
                cost.agg_forward_flops += agg.flops;
                cost.agg_forward_bytes += agg.bytes;
            }
            cost.forward +=
                kernels_.gemm(targets, out_dim, in_dim).seconds;
            if (model.type == ModelType::kGin) {
                // Second MLP linear.
                cost.forward +=
                    kernels_.gemm(targets, out_dim, out_dim).seconds;
            }
            cost.forward +=
                kernels_.elementwise(targets * out_dim).seconds;
        }

        // ---- Backward (Eq. 5): scatter aggregation + two GEMMs ----
        // Layer 0's input-gradient GEMM (the first backward_gemm of
        // each layer) and, for GCN/GIN, its scatter stay charged although
        // the host skips them: see docs/COST_MODEL.md.
        if (model.type == ModelType::kGat) {
            cost.backward += backward_agg(block, out_dim);
            cost.backward +=
                kernels_.elementwise(edges * model.gat_heads * 3)
                    .seconds;
            cost.backward += backward_gemm(src_rows, in_dim, out_dim);
            cost.backward += backward_gemm(in_dim, out_dim, src_rows);
        } else {
            cost.backward += backward_agg(block, in_dim);
            cost.backward += backward_gemm(targets, in_dim, out_dim);
            cost.backward += backward_gemm(in_dim, out_dim, targets);
            if (model.type == ModelType::kGin) {
                cost.backward += backward_gemm(targets, out_dim, out_dim);
                cost.backward += backward_gemm(out_dim, out_dim, targets);
            }
        }
    }

    if (plan_ == ComputePlan::kGnnAdvisor) {
        // The sampled subgraph must be preprocessed every iteration
        // (Section 6.2): neighbour grouping + 2D workload construction.
        cost.preprocess = kernels_.preprocess_gnnadvisor(
            sg.num_nodes(), sg.total_edges());
    }
    return cost;
}

} // namespace compute
} // namespace fastgl
