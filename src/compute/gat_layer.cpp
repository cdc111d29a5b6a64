#include "compute/gat_layer.h"

#include <algorithm>
#include <cmath>

#include "compute/ops.h"
#include "util/logging.h"
#include "util/timer.h"

namespace fastgl {
namespace compute {

GatLayer::GatLayer(int64_t in_dim, int num_heads, int64_t head_dim,
                   bool apply_elu, util::Rng &rng)
    : in_dim_(in_dim),
      num_heads_(num_heads),
      head_dim_(head_dim),
      apply_elu_(apply_elu)
{
    FASTGL_CHECK(num_heads > 0 && head_dim > 0, "invalid GAT geometry");
    const int64_t out = out_dim();
    const float scale = std::sqrt(2.0f / static_cast<float>(in_dim + out));
    weight_ = Parameter(Tensor::randn(in_dim, out, rng, scale));
    attn_l_ = Parameter(Tensor::randn(num_heads, head_dim, rng, scale));
    attn_r_ = Parameter(Tensor::randn(num_heads, head_dim, rng, scale));
}

Tensor
GatLayer::forward(const sample::LayerBlock &block, const Tensor &input)
{
    FASTGL_CHECK(input.cols() == in_dim_, "gat input dim mismatch");
    input_rows_ = input.rows();
    block.validate(input_rows_);
    const int64_t targets = block.num_targets();
    const int64_t edges = block.num_edges();
    const int64_t dh = head_dim_;

    saved_input_ = input;
    projected_ = Tensor(input_rows_, out_dim());
    engine_->gemm(input, weight_.value, projected_);

    // Per-row attention logits s_l (targets) and s_r (sources):
    // row-parallel, rows are independent.
    Tensor s_l(input_rows_, num_heads_);
    Tensor s_r(input_rows_, num_heads_);
    engine_->parallel_rows(input_rows_, [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
            const float *z = projected_.data() + r * out_dim();
            for (int h = 0; h < num_heads_; ++h) {
                float accl = 0.0f, accr = 0.0f;
                const float *al = attn_l_.value.data() + h * dh;
                const float *ar = attn_r_.value.data() + h * dh;
                for (int64_t d = 0; d < dh; ++d) {
                    accl += al[d] * z[h * dh + d];
                    accr += ar[d] * z[h * dh + d];
                }
                s_l.at(r, h) = accl;
                s_r.at(r, h) = accr;
            }
        }
    });

    // Edge scores with LeakyReLU, then a per-target softmax:
    // target-parallel, each target owns its edge rows.
    pre_scores_ = Tensor(edges, num_heads_);
    alpha_ = Tensor(edges, num_heads_);
    engine_->parallel_rows(targets, [&](int64_t t0, int64_t t1) {
      for (int64_t t = t0; t < t1; ++t) {
        for (graph::EdgeId e = block.indptr[t]; e < block.indptr[t + 1];
             ++e) {
            const graph::NodeId v = block.sources[e];
            for (int h = 0; h < num_heads_; ++h)
                pre_scores_.at(e, h) = s_l.at(t, h) + s_r.at(v, h);
        }
        // softmax over this target's edges, per head (numerically stable).
        for (int h = 0; h < num_heads_; ++h) {
            float max_score = -1e30f;
            for (graph::EdgeId e = block.indptr[t];
                 e < block.indptr[t + 1]; ++e) {
                const float pre = pre_scores_.at(e, h);
                const float act =
                    pre > 0.0f ? pre : kLeakySlope * pre;
                max_score = std::max(max_score, act);
            }
            float denom = 0.0f;
            for (graph::EdgeId e = block.indptr[t];
                 e < block.indptr[t + 1]; ++e) {
                const float pre = pre_scores_.at(e, h);
                const float act =
                    pre > 0.0f ? pre : kLeakySlope * pre;
                const float ex = std::exp(act - max_score);
                alpha_.at(e, h) = ex;
                denom += ex;
            }
            if (denom > 0.0f) {
                for (graph::EdgeId e = block.indptr[t];
                     e < block.indptr[t + 1]; ++e)
                    alpha_.at(e, h) /= denom;
            }
        }
      }
    });

    // Weighted aggregation of projected features, per head:
    // target-parallel, each target owns its output row. Counted in the
    // engine's stats as the forward aggregation.
    Tensor out(targets, out_dim());
    const util::WallTimer agg_timer;
    engine_->parallel_rows(targets, [&](int64_t t0, int64_t t1) {
      for (int64_t t = t0; t < t1; ++t) {
        float *dst = out.data() + t * out_dim();
        for (graph::EdgeId e = block.indptr[t]; e < block.indptr[t + 1];
             ++e) {
            const graph::NodeId v = block.sources[e];
            const float *z = projected_.data() + v * out_dim();
            for (int h = 0; h < num_heads_; ++h) {
                const float a = alpha_.at(e, h);
                for (int64_t d = 0; d < dh; ++d)
                    dst[h * dh + d] += a * z[h * dh + d];
            }
        }
      }
    });
    engine_->record_aggregation(block, out_dim(), false,
                                agg_timer.elapsed_seconds());
    if (apply_elu_)
        elu_forward(out);
    output_ = out;
    return out;
}

Tensor
GatLayer::backward(const sample::LayerBlock &block,
                   const Tensor &grad_output, bool need_input_grad)
{
    const int64_t edges = block.num_edges();
    const int64_t targets = block.num_targets();
    const int64_t dh = head_dim_;

    Tensor grad = grad_output;
    if (apply_elu_)
        elu_backward(output_, grad);

    // The historical single-pass loops interleaved per-edge reads with
    // scatters into source-indexed rows (grad_z, grad_sr) — races under
    // target parallelism. They are split into target-parallel passes
    // (writes keyed by target) and source-parallel reverse-CSR gathers
    // (writes keyed by source, contributions added in ascending
    // edge-ID order — the exact order of the sequential scatter), so
    // every pass is race-free and bit-identical at any thread count.
    const sample::ReverseCsr &rc = block.reverse_csr();

    // d/d alpha (target-parallel: one write per edge row).
    Tensor grad_alpha(edges, num_heads_);
    engine_->parallel_rows(targets, [&](int64_t t0, int64_t t1) {
      for (int64_t t = t0; t < t1; ++t) {
        const float *g = grad.data() + t * out_dim();
        for (graph::EdgeId e = block.indptr[t]; e < block.indptr[t + 1];
             ++e) {
            const graph::NodeId v = block.sources[e];
            const float *z = projected_.data() + v * out_dim();
            for (int h = 0; h < num_heads_; ++h) {
                float acc = 0.0f;
                for (int64_t d = 0; d < dh; ++d)
                    acc += g[h * dh + d] * z[h * dh + d];
                grad_alpha.at(e, h) = acc;
            }
        }
      }
    });

    // d/d z, aggregation part (source-parallel gather), counted in the
    // engine's stats as the backward aggregation.
    Tensor grad_z(input_rows_, out_dim());
    const util::WallTimer agg_timer;
    engine_->parallel_rows(rc.num_sources, [&](int64_t v0, int64_t v1) {
      for (int64_t v = v0; v < v1; ++v) {
        float *gz = grad_z.data() + v * out_dim();
        for (graph::EdgeId i = rc.indptr[v]; i < rc.indptr[v + 1]; ++i) {
            const graph::EdgeId e = rc.edge_ids[i];
            const graph::NodeId t = rc.edge_targets[i];
            const float *g = grad.data() + t * out_dim();
            for (int h = 0; h < num_heads_; ++h) {
                const float a = alpha_.at(e, h);
                for (int64_t d = 0; d < dh; ++d)
                    gz[h * dh + d] += a * g[h * dh + d];
            }
        }
      }
    });
    engine_->record_aggregation(block, out_dim(), true,
                                agg_timer.elapsed_seconds());

    // Softmax + LeakyReLU backward. Pass one (target-parallel) writes
    // the per-edge score gradient gs and the target-keyed grad_sl; pass
    // two gathers gs into the source-keyed grad_sr.
    Tensor gs_scores(edges, num_heads_);
    Tensor grad_sl(input_rows_, num_heads_);
    Tensor grad_sr(input_rows_, num_heads_);
    engine_->parallel_rows(targets, [&](int64_t t0, int64_t t1) {
      for (int64_t t = t0; t < t1; ++t) {
        for (int h = 0; h < num_heads_; ++h) {
            float dot = 0.0f;
            for (graph::EdgeId e = block.indptr[t];
                 e < block.indptr[t + 1]; ++e)
                dot += alpha_.at(e, h) * grad_alpha.at(e, h);
            for (graph::EdgeId e = block.indptr[t];
                 e < block.indptr[t + 1]; ++e) {
                float gs =
                    alpha_.at(e, h) * (grad_alpha.at(e, h) - dot);
                const float pre = pre_scores_.at(e, h);
                if (pre <= 0.0f)
                    gs *= kLeakySlope;
                gs_scores.at(e, h) = gs;
                grad_sl.at(t, h) += gs;
            }
        }
      }
    });
    engine_->parallel_rows(rc.num_sources, [&](int64_t v0, int64_t v1) {
      for (int64_t v = v0; v < v1; ++v) {
        for (graph::EdgeId i = rc.indptr[v]; i < rc.indptr[v + 1]; ++i) {
            const graph::EdgeId e = rc.edge_ids[i];
            for (int h = 0; h < num_heads_; ++h)
                grad_sr.at(v, h) += gs_scores.at(e, h);
        }
      }
    });

    // Attention-vector chain: head-parallel — each head owns its gz
    // column slice and its attn_l/attn_r gradient rows, and iterates
    // rows in ascending order (the sequential accumulation order).
    engine_->parallel_rows(num_heads_, [&](int64_t h0, int64_t h1) {
      for (int64_t h = h0; h < h1; ++h) {
        const float *al = attn_l_.value.data() + h * dh;
        const float *ar = attn_r_.value.data() + h * dh;
        float *gal = attn_l_.grad.data() + h * dh;
        float *gar = attn_r_.grad.data() + h * dh;
        for (int64_t r = 0; r < input_rows_; ++r) {
            float *gz = grad_z.data() + r * out_dim();
            const float *z = projected_.data() + r * out_dim();
            const float gl = grad_sl.at(r, h);
            const float gr = grad_sr.at(r, h);
            for (int64_t d = 0; d < dh; ++d) {
                gz[h * dh + d] += gl * al[d] + gr * ar[d];
                gal[d] += gl * z[h * dh + d];
                gar[d] += gr * z[h * dh + d];
            }
        }
      }
    });

    // Projection backward: grad_W = X^T grad_z, grad_X = grad_z W^T.
    Tensor grad_weight(in_dim_, out_dim());
    FASTGL_CHECK(saved_input_.rows() == input_rows_,
                 "backward without matching forward");
    engine_->gemm_ta(saved_input_, grad_z, grad_weight);
    weight_.grad.add_scaled(grad_weight, 1.0f);
    if (!need_input_grad)
        return Tensor();

    Tensor grad_input(input_rows_, in_dim_);
    engine_->gemm_tb(grad_z, weight_.value, grad_input);
    return grad_input;
}

std::vector<Parameter *>
GatLayer::parameters()
{
    return {&weight_, &attn_l_, &attn_r_};
}

} // namespace compute
} // namespace fastgl
