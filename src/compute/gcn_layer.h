/**
 * @file
 * Graph Convolutional Network layer (Kipf & Welling), the paper's primary
 * benchmark model: mean-normalised aggregation followed by a dense update
 * and optional ReLU.
 */
#pragma once

#include "compute/gnn_layer.h"
#include "util/rng.h"

namespace fastgl {
namespace compute {

/** One GCN layer: out = act( mean-agg(input) * W + b ). */
class GcnLayer : public GnnLayer
{
  public:
    /**
     * @param in_dim     input feature dimension
     * @param out_dim    output feature dimension
     * @param apply_relu apply ReLU (hidden layers true, output false)
     * @param rng        weight init source
     */
    GcnLayer(int64_t in_dim, int64_t out_dim, bool apply_relu,
             util::Rng &rng);

    Tensor forward(const sample::LayerBlock &block,
                   const Tensor &input) override;
    Tensor backward(const sample::LayerBlock &block,
                    const Tensor &grad_output,
                    bool need_input_grad) override;
    std::vector<Parameter *> parameters() override;

    int64_t in_dim() const override { return in_dim_; }
    int64_t out_dim() const override { return out_dim_; }
    std::string name() const override { return "gcn"; }

  private:
    int64_t in_dim_;
    int64_t out_dim_;
    bool apply_relu_;
    Parameter weight_; ///< [in_dim x out_dim]
    Parameter bias_;   ///< [1 x out_dim]

    // Forward context.
    std::vector<float> edge_weights_;
    Tensor aggregated_; ///< [targets x in_dim]
    Tensor output_;     ///< post-activation (for ReLU backward)
    int64_t input_rows_ = 0;
};

} // namespace compute
} // namespace fastgl
