/**
 * @file
 * Verbatim copies of the historical code paths that the fast paths must
 * reproduce bit for bit, and the digests that compare them. The golden
 * tests pin these outputs, and the gated benches time them as the
 * "before" side and witness every fast-path result against them: one
 * copy, so a bench and its tests can never check against different
 * oracles.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "compute/tensor.h"
#include "core/timeline.h"
#include "graph/feature_store.h"
#include "match/feature_cache.h"
#include "match/gather_engine.h"
#include "sample/minibatch.h"
#include "sim/task_schedule.h"
#include "util/fingerprint.h"

namespace fastgl {
namespace reference {

using compute::Tensor;

/** FNV-1a over a tensor's raw bytes. */
inline uint64_t
tensor_hash(const Tensor &x)
{
    return util::fnv_bytes(x.data(),
                           static_cast<size_t>(x.numel()) * sizeof(float));
}

/** FNV-1a over a gathered panel's raw bytes (compares to tensor_hash). */
inline uint64_t
panel_hash(const match::FeaturePanel &panel)
{
    return util::fnv_bytes(panel.data(), static_cast<size_t>(panel.bytes()));
}

/** Digest of every field of a sampled subgraph that a sampler fills. */
inline uint64_t
hash_subgraph(const sample::SampledSubgraph &sg)
{
    using util::fnv;
    uint64_t h = util::kFnvOffset;
    h = fnv(h, static_cast<uint64_t>(sg.num_seeds));
    h = fnv(h, static_cast<uint64_t>(sg.instances));
    h = fnv(h, static_cast<uint64_t>(sg.edges_examined));
    for (graph::NodeId n : sg.nodes)
        h = fnv(h, static_cast<uint64_t>(n));
    for (const auto &blk : sg.blocks) {
        for (auto t : blk.targets)
            h = fnv(h, static_cast<uint64_t>(t));
        for (auto p : blk.indptr)
            h = fnv(h, static_cast<uint64_t>(p));
        for (auto s : blk.sources)
            h = fnv(h, static_cast<uint64_t>(s));
    }
    return h;
}

// ------------------------------------------------------------------
// The pre-engine compute kernels: the exact loops the KernelEngine must
// reproduce, including the zero-skip in gemm/gemm_ta and the scalar
// dot of gemm_tb.
// ------------------------------------------------------------------

inline void
legacy_gemm(const Tensor &a, const Tensor &b, Tensor &c)
{
    const int64_t m = a.rows(), k = a.cols(), n = b.cols();
    c.fill_zero();
    for (int64_t i = 0; i < m; ++i) {
        float *ci = c.data() + i * n;
        const float *ai = a.data() + i * k;
        for (int64_t p = 0; p < k; ++p) {
            const float av = ai[p];
            if (av == 0.0f)
                continue;
            const float *bp = b.data() + p * n;
            for (int64_t j = 0; j < n; ++j)
                ci[j] += av * bp[j];
        }
    }
}

inline void
legacy_gemm_ta(const Tensor &a, const Tensor &b, Tensor &c)
{
    const int64_t k = a.rows(), m = a.cols(), n = b.cols();
    c.fill_zero();
    for (int64_t p = 0; p < k; ++p) {
        const float *ap = a.data() + p * m;
        const float *bp = b.data() + p * n;
        for (int64_t i = 0; i < m; ++i) {
            const float av = ap[i];
            if (av == 0.0f)
                continue;
            float *ci = c.data() + i * n;
            for (int64_t j = 0; j < n; ++j)
                ci[j] += av * bp[j];
        }
    }
}

inline void
legacy_gemm_tb(const Tensor &a, const Tensor &b, Tensor &c)
{
    const int64_t m = a.rows(), k = a.cols(), n = b.rows();
    for (int64_t i = 0; i < m; ++i) {
        const float *ai = a.data() + i * k;
        float *ci = c.data() + i * n;
        for (int64_t j = 0; j < n; ++j) {
            const float *bj = b.data() + j * k;
            float acc = 0.0f;
            for (int64_t p = 0; p < k; ++p)
                acc += ai[p] * bj[p];
            ci[j] = acc;
        }
    }
}

inline void
legacy_aggregate_forward(const sample::LayerBlock &block,
                         const std::vector<float> &weights,
                         const Tensor &in, Tensor &out)
{
    const int64_t dim = in.cols();
    out.fill_zero();
    for (int64_t t = 0; t < block.num_targets(); ++t) {
        float *dst = out.data() + t * dim;
        for (graph::EdgeId e = block.indptr[t]; e < block.indptr[t + 1];
             ++e) {
            const graph::NodeId v = block.sources[e];
            const float w = weights[static_cast<size_t>(e)];
            const float *src = in.data() + v * dim;
            for (int64_t c = 0; c < dim; ++c)
                dst[c] += w * src[c];
        }
    }
}

inline void
legacy_aggregate_backward(const sample::LayerBlock &block,
                          const std::vector<float> &weights,
                          const Tensor &grad_out, Tensor &grad_in)
{
    const int64_t dim = grad_out.cols();
    for (int64_t t = 0; t < block.num_targets(); ++t) {
        const float *gout = grad_out.data() + t * dim;
        for (graph::EdgeId e = block.indptr[t]; e < block.indptr[t + 1];
             ++e) {
            const graph::NodeId v = block.sources[e];
            const float w = weights[static_cast<size_t>(e)];
            float *gin = grad_in.data() + v * dim;
            for (int64_t c = 0; c < dim; ++c)
                gin[c] += w * gout[c];
        }
    }
}

inline void
legacy_aggregate_backward_weights(const sample::LayerBlock &block,
                                  const Tensor &in,
                                  const Tensor &grad_out,
                                  std::vector<float> &grad_weights)
{
    grad_weights.assign(static_cast<size_t>(block.num_edges()), 0.0f);
    const int64_t dim = in.cols();
    for (int64_t t = 0; t < block.num_targets(); ++t) {
        const float *gout = grad_out.data() + t * dim;
        for (graph::EdgeId e = block.indptr[t]; e < block.indptr[t + 1];
             ++e) {
            const graph::NodeId v = block.sources[e];
            const float *src = in.data() + v * dim;
            float acc = 0.0f;
            for (int64_t c = 0; c < dim; ++c)
                acc += gout[c] * src[c];
            grad_weights[static_cast<size_t>(e)] = acc;
        }
    }
}

// ------------------------------------------------------------------
// The pre-engine feature staging and presample.
// ------------------------------------------------------------------

/**
 * The historical feature staging: a fresh (zero-filled) Tensor for the
 * batch, then one bounds-checked gather_row per node — the pre-engine
 * Trainer::gather_features body.
 */
inline Tensor
legacy_gather_features(const graph::FeatureStore &store,
                       const std::vector<graph::NodeId> &nodes)
{
    Tensor x(static_cast<int64_t>(nodes.size()), store.dim());
    for (size_t i = 0; i < nodes.size(); ++i)
        store.gather_row(nodes[i], x.row(static_cast<int64_t>(i)).data());
    return x;
}

/** The historical presample: dense per-node counts, then a full sort. */
inline std::vector<graph::NodeId>
legacy_presample(const std::vector<graph::NodeId> &stream,
                 graph::NodeId num_nodes)
{
    std::vector<int64_t> freq(static_cast<size_t>(num_nodes), 0);
    for (graph::NodeId u : stream)
        ++freq[static_cast<size_t>(u)];
    return match::presample_ranking(freq);
}


// ------------------------------------------------------------------
// The single-trainer epoch timeline that core::simulate_epoch_multi
// generalised.
// ------------------------------------------------------------------

/**
 * The historical one-trainer event-driven epoch: per batch, sample ->
 * copy -> compute (allreduce folded into compute) on three resources.
 * core::simulate_epoch_multi must reproduce its makespan bit for bit.
 */
inline double
legacy_epoch_makespan(const std::vector<core::BatchStageTimes> &batches,
                      const core::TimelineConfig &config)
{
    sim::TaskSchedule schedule;
    const int sampler = schedule.add_resource("sample");
    const int copy = schedule.add_resource("copy");
    const int compute = schedule.add_resource("compute");

    int prev_compute = -1;
    int prev_sample = -1;
    int prev_copy = -1;
    for (const core::BatchStageTimes &t : batches) {
        std::vector<int> sample_deps;
        if (prev_sample >= 0)
            sample_deps.push_back(prev_sample);
        if (!config.dedicated_sampler && prev_compute >= 0)
            sample_deps.push_back(prev_compute);
        const int s = schedule.add_task(sampler, t.sample, sample_deps);

        std::vector<int> copy_deps = {s};
        if (prev_copy >= 0)
            copy_deps.push_back(prev_copy);
        if (!config.overlap_copy_compute && prev_compute >= 0)
            copy_deps.push_back(prev_compute);
        const int c = schedule.add_task(copy, t.io, copy_deps);

        std::vector<int> compute_deps = {c};
        if (prev_compute >= 0)
            compute_deps.push_back(prev_compute);
        const int k = schedule.add_task(
            compute, t.compute + config.allreduce, compute_deps);

        prev_sample = s;
        prev_copy = c;
        prev_compute = k;
    }
    return schedule.run();
}

} // namespace reference
} // namespace fastgl
