/**
 * @file
 * Finite-difference gradient checks for the GCN, GIN and GAT layers: the
 * strongest possible correctness evidence for hand-written backward
 * passes. Each layer's parameter gradients and input gradients are checked
 * against central differences on a small sampled block.
 */
#include <gtest/gtest.h>

#include <cmath>

#include <functional>
#include <memory>

#include "compute/gat_layer.h"
#include "compute/gcn_layer.h"
#include "compute/gin_layer.h"
#include "util/rng.h"

namespace fastgl {
namespace {

using compute::GnnLayer;
using compute::Tensor;

/** Block with 3 targets over 5 source rows (targets are rows 0..2). */
sample::LayerBlock
gradcheck_block()
{
    sample::LayerBlock blk;
    blk.targets = {0, 1, 2};
    blk.indptr = {0, 3, 5, 8};
    blk.sources = {0, 3, 4, 1, 2, 2, 3, 4};
    return blk;
}

/** Scalar loss: <forward(input), projection>. */
double
projected_loss(GnnLayer &layer, const sample::LayerBlock &blk,
               const Tensor &input, const Tensor &projection)
{
    Tensor out = layer.forward(blk, input);
    double acc = 0.0;
    for (int64_t i = 0; i < out.rows(); ++i)
        for (int64_t j = 0; j < out.cols(); ++j)
            acc += double(out.at(i, j)) * double(projection.at(i, j));
    return acc;
}

/**
 * Check d(loss)/d(*target_value) for a handful of elements of a tensor
 * against central differences.
 */
void
check_gradient(GnnLayer &layer, const sample::LayerBlock &blk,
               Tensor &input, const Tensor &projection,
               Tensor &perturbed, const Tensor &analytic_grad,
               const char *what)
{
    constexpr float kEps = 1e-2f;
    // Probe a deterministic subset of elements.
    const int64_t stride =
        std::max<int64_t>(1, perturbed.numel() / 7);
    for (int64_t flat = 0; flat < perturbed.numel(); flat += stride) {
        const int64_t r = flat / perturbed.cols();
        const int64_t c = flat % perturbed.cols();
        const float saved = perturbed.at(r, c);

        perturbed.at(r, c) = saved + kEps;
        const double up = projected_loss(layer, blk, input, projection);
        perturbed.at(r, c) = saved - kEps;
        const double down =
            projected_loss(layer, blk, input, projection);
        perturbed.at(r, c) = saved;

        const double numeric = (up - down) / (2.0 * kEps);
        const double analytic = analytic_grad.at(r, c);
        const double scale =
            std::max({1.0, std::abs(numeric), std::abs(analytic)});
        EXPECT_NEAR(analytic, numeric, 0.05 * scale)
            << what << " element (" << r << "," << c << ")";
    }
}

enum class LayerKind { kGcn, kGin, kGat };

class LayerGradCheck : public ::testing::TestWithParam<LayerKind>
{
  protected:
    std::unique_ptr<GnnLayer>
    make_layer(util::Rng &rng)
    {
        switch (GetParam()) {
          case LayerKind::kGcn:
            return std::make_unique<compute::GcnLayer>(4, 3, true, rng);
          case LayerKind::kGin:
            return std::make_unique<compute::GinLayer>(4, 3, true, rng);
          case LayerKind::kGat:
            return std::make_unique<compute::GatLayer>(4, 2, 3, true,
                                                       rng);
        }
        return nullptr;
    }
};

TEST_P(LayerGradCheck, ParameterGradientsMatchFiniteDifferences)
{
    util::Rng rng(404);
    auto layer = make_layer(rng);
    const auto blk = gradcheck_block();
    Tensor input = Tensor::randn(5, 4, rng, 0.8f);
    Tensor projection =
        Tensor::randn(blk.num_targets(), layer->out_dim(), rng, 1.0f);

    // Analytic gradients, with the input gradient skipped as it is for
    // the input-side layer in training.
    for (auto *p : layer->parameters())
        p->zero_grad();
    layer->forward(blk, input);
    layer->backward(blk, projection, false);

    for (auto *p : layer->parameters()) {
        Tensor analytic = p->grad; // copy before re-forwards disturb it
        check_gradient(*layer, blk, input, projection, p->value,
                       analytic, "parameter");
    }
}

TEST_P(LayerGradCheck, InputGradientsMatchFiniteDifferences)
{
    util::Rng rng(505);
    auto layer = make_layer(rng);
    const auto blk = gradcheck_block();
    Tensor input = Tensor::randn(5, 4, rng, 0.8f);
    Tensor projection =
        Tensor::randn(blk.num_targets(), layer->out_dim(), rng, 1.0f);

    for (auto *p : layer->parameters())
        p->zero_grad();
    layer->forward(blk, input);
    Tensor grad_input = layer->backward(blk, projection, true);
    ASSERT_EQ(grad_input.rows(), input.rows());
    ASSERT_EQ(grad_input.cols(), input.cols());

    check_gradient(*layer, blk, input, projection, input, grad_input,
                   "input");
}

INSTANTIATE_TEST_SUITE_P(AllLayers, LayerGradCheck,
                         ::testing::Values(LayerKind::kGcn,
                                           LayerKind::kGin,
                                           LayerKind::kGat),
                         [](const auto &info) {
                             switch (info.param) {
                               case LayerKind::kGcn: return "GCN";
                               case LayerKind::kGin: return "GIN";
                               case LayerKind::kGat: return "GAT";
                             }
                             return "?";
                         });

TEST(Layers, OutputShapes)
{
    util::Rng rng(1);
    const auto blk = gradcheck_block();
    Tensor input = Tensor::randn(5, 4, rng, 1.0f);

    compute::GcnLayer gcn(4, 7, false, rng);
    EXPECT_EQ(gcn.forward(blk, input).rows(), 3);
    EXPECT_EQ(gcn.forward(blk, input).cols(), 7);
    EXPECT_EQ(gcn.out_dim(), 7);

    compute::GinLayer gin(4, 6, false, rng);
    EXPECT_EQ(gin.forward(blk, input).cols(), 6);

    compute::GatLayer gat(4, 8, 8, true, rng);
    EXPECT_EQ(gat.forward(blk, input).cols(), 64);
    EXPECT_EQ(gat.num_heads(), 8);
}

TEST(Layers, GatAttentionRowsSumToOne)
{
    // The attention coefficients of each (target, head) form a softmax;
    // verify through a probe: constant projected features make the output
    // equal the feature itself iff the alphas sum to one.
    util::Rng rng(2);
    const auto blk = gradcheck_block();
    compute::GatLayer gat(4, 2, 3, /*apply_elu=*/false, rng);
    Tensor input(5, 4);
    input.fill(1.0f); // all rows identical => z rows identical
    Tensor out = gat.forward(blk, input);
    // Every target's output must equal any source's projection (convex
    // combination of identical vectors).
    Tensor out2 = gat.forward(blk, input);
    for (int64_t t = 1; t < out.rows(); ++t)
        for (int64_t j = 0; j < out.cols(); ++j)
            EXPECT_NEAR(out.at(t, j), out.at(0, j), 1e-4);
    (void)out2;
}

} // namespace
} // namespace fastgl
