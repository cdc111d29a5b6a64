/**
 * @file
 * Abstract GNN layer: aggregation (Eq. 1) + update (Eq. 2) over one
 * sampled LayerBlock, with exact backward passes for training.
 */
#pragma once

#include <string>
#include <vector>

#include "compute/kernel_engine.h"
#include "compute/tensor.h"
#include "sample/minibatch.h"

namespace fastgl {
namespace compute {

/** One GNN layer with stateful forward/backward (stores its context). */
class GnnLayer
{
  public:
    virtual ~GnnLayer() = default;

    /**
     * Run this layer's kernels on @p engine (non-owning; must outlive
     * the layer). Null restores the shared sequential engine. Results
     * are bit-identical at any engine width.
     */
    void
    set_engine(KernelEngine *engine)
    {
        engine_ = engine ? engine : &KernelEngine::sequential();
    }

    /**
     * Forward pass over @p block.
     * @param input features of all source local IDs ([src_rows x in_dim];
     *        target local IDs index into the same rows)
     * @return output features [block.num_targets() x out_dim()]
     */
    virtual Tensor forward(const sample::LayerBlock &block,
                           const Tensor &input) = 0;

    /**
     * Backward pass; must follow the matching forward. Parameter
     * gradients are accumulated whatever @p need_input_grad says.
     * @param grad_output     gradient w.r.t. the forward output
     * @param need_input_grad compute the input gradient; false skips
     *        its GEMM and aggregation (the input-side layer's input is
     *        plain features that nothing differentiates)
     * @return gradient w.r.t. the forward input (same rows as input),
     *         or an empty tensor when @p need_input_grad is false
     */
    virtual Tensor backward(const sample::LayerBlock &block,
                            const Tensor &grad_output,
                            bool need_input_grad) = 0;

    /** Trainable parameters (value + grad pairs). */
    virtual std::vector<Parameter *> parameters() = 0;

    virtual int64_t in_dim() const = 0;
    virtual int64_t out_dim() const = 0;
    virtual std::string name() const = 0;

  protected:
    /** Kernel engine the forward/backward passes run on. */
    KernelEngine *engine_ = &KernelEngine::sequential();
};

} // namespace compute
} // namespace fastgl
