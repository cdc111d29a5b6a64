/**
 * @file
 * Tests for the compute-phase cost model: plan ordering (Memory-Aware <
 * naive), GNNAdvisor's preprocessing tax, scaling behaviour.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "compute/compute_cost.h"
#include "compute/gat_layer.h"
#include "compute/gcn_layer.h"
#include "compute/gin_layer.h"
#include "compute/kernel_engine.h"
#include "graph/generators.h"
#include "sample/neighbor_sampler.h"
#include "util/rng.h"

namespace fastgl {
namespace {

sample::SampledSubgraph
sampled_subgraph(int hops = 3)
{
    graph::RmatParams params;
    params.num_nodes = 20000;
    params.num_edges = 160000;
    params.seed = 12;
    static graph::CsrGraph g = graph::generate_rmat(params);
    std::vector<int> fanouts;
    const int paper[] = {5, 10, 15};
    for (int h = 0; h < hops; ++h)
        fanouts.push_back(paper[h]);
    sample::NeighborSamplerOptions opts;
    opts.fanouts = fanouts;
    opts.seed = 21;
    sample::NeighborSampler sampler(g, opts);
    std::vector<graph::NodeId> seeds;
    for (int i = 0; i < 200; ++i)
        seeds.push_back(graph::NodeId(i));
    return sampler.sample(seeds);
}

compute::ModelConfig
gcn_config(int layers = 3)
{
    compute::ModelConfig cfg;
    cfg.type = compute::ModelType::kGcn;
    cfg.in_dim = 256;
    cfg.hidden_dim = 64;
    cfg.num_classes = 47;
    cfg.num_layers = layers;
    return cfg;
}

TEST(ComputeCost, MemoryAwareBeatsNaive)
{
    const auto sg = sampled_subgraph();
    const auto cfg = gcn_config();
    compute::ComputeCostModel naive(sim::rtx3090(),
                                    compute::ComputePlan::kNaive);
    compute::ComputeCostModel aware(
        sim::rtx3090(), compute::ComputePlan::kMemoryAware);
    const double tn = naive.training_step(cfg, sg).total();
    const double tm = aware.training_step(cfg, sg).total();
    EXPECT_GT(tn, tm);
    // Paper Fig. 11: speedup 1.1x to 6.7x.
    EXPECT_GT(tn / tm, 1.1);
    EXPECT_LT(tn / tm, 8.0);
}

TEST(ComputeCost, GnnAdvisorPaysPreprocessEveryIteration)
{
    const auto sg = sampled_subgraph();
    const auto cfg = gcn_config();
    compute::ComputeCostModel advisor(
        sim::rtx3090(), compute::ComputePlan::kGnnAdvisor);
    const auto cost = advisor.training_step(cfg, sg);
    EXPECT_GT(cost.preprocess, 0.0);
    // Paper Fig. 11: preprocessing occupies a large share (up to 75%)
    // of GNNAdvisor's compute phase.
    EXPECT_GT(cost.preprocess / cost.total(), 0.2);

    compute::ComputeCostModel naive(sim::rtx3090(),
                                    compute::ComputePlan::kNaive);
    EXPECT_DOUBLE_EQ(naive.training_step(cfg, sg).preprocess, 0.0);
}

TEST(ComputeCost, GnnAdvisorNetSlowerThanNaiveWithPreprocess)
{
    // GNNAdvisor's kernels beat naive, but per-iteration preprocessing
    // makes it a net loss in sampling-based training (paper Section 6.3).
    const auto sg = sampled_subgraph();
    const auto cfg = gcn_config();
    compute::ComputeCostModel advisor(
        sim::rtx3090(), compute::ComputePlan::kGnnAdvisor);
    compute::ComputeCostModel naive(sim::rtx3090(),
                                    compute::ComputePlan::kNaive);
    const auto adv = advisor.training_step(cfg, sg);
    const auto nai = naive.training_step(cfg, sg);
    EXPECT_LT(adv.forward + adv.backward, nai.forward + nai.backward);
    EXPECT_GT(adv.total(), nai.total());
}

TEST(ComputeCost, ScalesWithFeatureDim)
{
    const auto sg = sampled_subgraph();
    auto small = gcn_config();
    small.in_dim = 64;
    auto large = gcn_config();
    large.in_dim = 512;
    compute::ComputeCostModel model(sim::rtx3090(),
                                    compute::ComputePlan::kMemoryAware);
    EXPECT_GT(model.training_step(large, sg).total(),
              model.training_step(small, sg).total());
}

TEST(ComputeCost, BackwardComparableToForward)
{
    const auto sg = sampled_subgraph();
    const auto cfg = gcn_config();
    compute::ComputeCostModel model(sim::rtx3090(),
                                    compute::ComputePlan::kNaive);
    const auto cost = model.training_step(cfg, sg);
    EXPECT_GT(cost.backward, 0.5 * cost.forward);
    EXPECT_LT(cost.backward, 4.0 * cost.forward);
}

TEST(ComputeCost, AllThreeModelsProduceFiniteCosts)
{
    const auto sg = sampled_subgraph();
    for (auto type : {compute::ModelType::kGcn, compute::ModelType::kGin,
                      compute::ModelType::kGat}) {
        auto cfg = gcn_config();
        cfg.type = type;
        compute::ComputeCostModel model(
            sim::rtx3090(), compute::ComputePlan::kMemoryAware);
        const auto cost = model.training_step(cfg, sg);
        EXPECT_GT(cost.total(), 0.0) << compute::model_type_name(type);
        EXPECT_TRUE(std::isfinite(cost.total()));
    }
}

TEST(ComputeCost, GatCostsMoreThanGcn)
{
    // At equal aggregation width (64), attention adds the projection over
    // all sources plus per-edge score work on top of GCN's pipeline.
    const auto sg = sampled_subgraph();
    auto gcn = gcn_config();
    gcn.in_dim = 64;
    auto gat = gcn_config();
    gat.in_dim = 64;
    gat.type = compute::ModelType::kGat;
    compute::ComputeCostModel model(sim::rtx3090(),
                                    compute::ComputePlan::kNaive);
    EXPECT_GT(model.training_step(gat, sg).total(),
              model.training_step(gcn, sg).total());
}

TEST(ComputeCost, RooflineAggregationExposesCounts)
{
    const auto sg = sampled_subgraph();
    compute::ComputeCostModel model(sim::rtx3090(),
                                    compute::ComputePlan::kNaive);
    const auto cost =
        model.aggregation_cost(sg.blocks.back(), 256);
    EXPECT_GT(cost.flops, 0.0);
    EXPECT_GT(cost.bytes, 0.0);
    EXPECT_GT(cost.gflops(), 0.0);
}

// ------------------------------------------- backward work accounting

/** Host backward work, derived from layer dims and block sizes. */
struct BackwardWork
{
    int64_t gemm_calls = 0;
    double gemm_flops = 0.0;
    int64_t agg_calls = 0;
    int64_t agg_edges = 0;
};

/**
 * What GnnModel::backward runs on the host: per layer the weight
 * gradient GEMM(s) and, except for layer 0, the input-gradient GEMM and
 * (GCN/GIN) the Eq. 5 scatter. GAT's attention backward gathers the
 * projection gradient over every layer's edges, layer 0 included, and
 * counts it as one aggregation. GAT's projection GEMMs run over
 * every input row of the layer; with @p cost_model_rows they are sized
 * the way ComputeCostModel sizes them instead, min(subgraph nodes,
 * targets + edges) of the layer's block.
 */
BackwardWork
derived_backward_work(const compute::ModelConfig &cfg,
                      const std::vector<std::pair<int64_t, int64_t>> &dims,
                      const sample::SampledSubgraph &sg,
                      bool cost_model_rows)
{
    BackwardWork work;
    const size_t layers = dims.size();
    for (size_t l = 0; l < layers; ++l) {
        const auto &block = sg.blocks[layers - 1 - l];
        const double in = double(dims[l].first);
        const double out = double(dims[l].second);
        const double targets = double(block.num_targets());
        const bool input_grad = l > 0;
        switch (cfg.type) {
          case compute::ModelType::kGcn:
            work.gemm_calls += input_grad ? 2 : 1;
            work.gemm_flops += (input_grad ? 2 : 1) * 2 * in * targets * out;
            work.agg_calls += input_grad ? 1 : 0;
            work.agg_edges += input_grad ? block.num_edges() : 0;
            break;
          case compute::ModelType::kGin:
            // Two weight GEMMs, the hidden-gradient GEMM and (l > 0) the
            // input-gradient GEMM; hidden width = out.
            work.gemm_calls += input_grad ? 4 : 3;
            work.gemm_flops += 2 * 2 * out * targets * out +
                               (input_grad ? 2 : 1) * 2 * in * targets *
                                   out;
            work.agg_calls += input_grad ? 1 : 0;
            work.agg_edges += input_grad ? block.num_edges() : 0;
            break;
          case compute::ModelType::kGat: {
            const double rows =
                cost_model_rows
                    ? double(std::min<int64_t>(
                          sg.num_nodes(),
                          block.num_targets() + block.num_edges()))
                : l == 0 ? double(sg.num_nodes())
                         : double(sg.blocks[layers - l].num_targets());
            work.gemm_calls += input_grad ? 2 : 1;
            work.gemm_flops += (input_grad ? 2 : 1) * 2 * rows * in * out;
            work.agg_calls += 1;
            work.agg_edges += block.num_edges();
            break;
          }
        }
    }
    return work;
}

class BackwardWorkAccounting
    : public ::testing::TestWithParam<compute::ModelType>
{
  protected:
    compute::ModelConfig
    config() const
    {
        compute::ModelConfig cfg;
        cfg.type = GetParam();
        cfg.in_dim = 24;
        cfg.hidden_dim = 16;
        cfg.num_classes = 7;
        cfg.num_layers = 3;
        cfg.gat_heads = 2;
        cfg.gat_head_dim = 4;
        return cfg;
    }
};

TEST_P(BackwardWorkAccounting, EngineCountsMatchLayerDimsAndCostModel)
{
    const auto sg = sampled_subgraph();
    const compute::ModelConfig cfg = config();
    compute::GnnModel model(cfg);
    compute::KernelEngine engine(2);
    model.set_engine(&engine);
    util::Rng rng(31);
    const compute::Tensor x =
        compute::Tensor::randn(sg.num_nodes(), cfg.in_dim, rng, 1.0f);
    const compute::Tensor logits = model.forward(sg, x);
    // Every model aggregates each layer's block once in the forward.
    EXPECT_EQ(engine.stats().agg_calls, cfg.num_layers);
    EXPECT_EQ(engine.stats().agg_edges, sg.total_edges());
    const compute::Tensor grad = compute::Tensor::randn(
        logits.rows(), logits.cols(), rng, 1.0f);
    engine.reset_stats();
    model.backward(sg, grad);

    const BackwardWork want =
        derived_backward_work(cfg, model.layer_dims(), sg, false);
    const compute::KernelEngineStats &got = engine.stats();
    EXPECT_EQ(got.gemm_calls, want.gemm_calls);
    EXPECT_DOUBLE_EQ(got.gemm_flops, want.gemm_flops);
    EXPECT_EQ(got.agg_calls, want.agg_calls);
    EXPECT_EQ(got.agg_edges, want.agg_edges);

    // The cost model charges the same backward GEMMs plus layer 0's
    // input-gradient GEMM, which the host skips; for GAT it also sizes
    // the projection by its own row rule (docs/COST_MODEL.md).
    compute::ComputeCostModel cost_model(sim::rtx3090(),
                                         compute::ComputePlan::kNaive);
    const compute::ComputeCost cost = cost_model.training_step(cfg, sg);
    const auto &block0 = sg.blocks.back();
    const int64_t in0 = model.layer_dims()[0].first;
    const int64_t out0 = model.layer_dims()[0].second;
    const int64_t rows0 =
        GetParam() == compute::ModelType::kGat
            ? std::min<int64_t>(sg.num_nodes(),
                                block0.num_targets() + block0.num_edges())
            : block0.num_targets();
    const double layer0_input_grad =
        cost_model.kernel_model().gemm(rows0, in0, out0).flops;
    const BackwardWork charged =
        derived_backward_work(cfg, model.layer_dims(), sg, true);
    EXPECT_EQ(got.gemm_calls, cost.backward_gemm_calls - 1);
    // The cost model charges one backward aggregation per layer; GCN
    // and GIN skip layer 0's scatter on the host, GAT runs all of them.
    const bool skips_layer0_agg = GetParam() != compute::ModelType::kGat;
    EXPECT_EQ(got.agg_calls,
              cost.backward_agg_calls - (skips_layer0_agg ? 1 : 0));
    EXPECT_EQ(got.agg_edges,
              cost.backward_agg_edges -
                  (skips_layer0_agg ? block0.num_edges() : 0));
    EXPECT_DOUBLE_EQ(charged.gemm_flops,
                     cost.backward_gemm_flops - layer0_input_grad);
    if (GetParam() != compute::ModelType::kGat) {
        EXPECT_DOUBLE_EQ(got.gemm_flops, charged.gemm_flops);
    }
}

/** One layer of the model's type with input-side dims. */
std::unique_ptr<compute::GnnLayer>
make_layer(compute::ModelType type, util::Rng &rng)
{
    switch (type) {
      case compute::ModelType::kGcn:
        return std::make_unique<compute::GcnLayer>(24, 16, true, rng);
      case compute::ModelType::kGin:
        return std::make_unique<compute::GinLayer>(24, 16, true, rng);
      case compute::ModelType::kGat:
        return std::make_unique<compute::GatLayer>(24, 2, 4, true, rng);
    }
    return nullptr;
}

TEST_P(BackwardWorkAccounting,
       SkippingInputGradientKeepsParameterGradsBitIdentical)
{
    const auto sg = sampled_subgraph();
    const auto &block = sg.blocks.back(); // the input-side layer's block
    util::Rng rng(41);
    auto layer = make_layer(GetParam(), rng);
    compute::KernelEngine engine(2);
    layer->set_engine(&engine);
    const compute::Tensor x =
        compute::Tensor::randn(sg.num_nodes(), 24, rng, 1.0f);
    const compute::Tensor gout = compute::Tensor::randn(
        block.num_targets(), layer->out_dim(), rng, 1.0f);

    std::vector<compute::Tensor> with_input_grad;
    for (const bool need_input_grad : {true, false}) {
        for (compute::Parameter *p : layer->parameters())
            p->zero_grad();
        layer->forward(block, x);
        const compute::Tensor gin =
            layer->backward(block, gout, need_input_grad);
        if (need_input_grad) {
            EXPECT_EQ(gin.rows(), sg.num_nodes());
            for (compute::Parameter *p : layer->parameters())
                with_input_grad.push_back(p->grad);
            continue;
        }
        EXPECT_EQ(gin.numel(), 0);
        const auto params = layer->parameters();
        ASSERT_EQ(params.size(), with_input_grad.size());
        for (size_t i = 0; i < params.size(); ++i) {
            const compute::Tensor &g = params[i]->grad;
            ASSERT_TRUE(g.same_shape(with_input_grad[i]));
            EXPECT_EQ(std::memcmp(g.data(), with_input_grad[i].data(),
                                  size_t(g.numel()) * sizeof(float)),
                      0)
                << "parameter " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllModels, BackwardWorkAccounting,
                         ::testing::Values(compute::ModelType::kGcn,
                                           compute::ModelType::kGin,
                                           compute::ModelType::kGat),
                         [](const auto &info) {
                             return compute::model_type_name(info.param);
                         });

TEST(ComputeCost, PlanNamesPrintable)
{
    EXPECT_STREQ(compute::compute_plan_name(compute::ComputePlan::kNaive),
                 "naive");
    EXPECT_STREQ(
        compute::compute_plan_name(compute::ComputePlan::kMemoryAware),
        "memory-aware");
    EXPECT_STREQ(
        compute::compute_plan_name(compute::ComputePlan::kGnnAdvisor),
        "gnnadvisor");
}

} // namespace
} // namespace fastgl
