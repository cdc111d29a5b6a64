/**
 * @file
 * Compute-kernel engine validation: before/after throughput of the
 * blocked GEMM variants and the parallel reverse-CSR aggregation.
 * "Before" is the pre-engine naive loops (tests/reference/, the copy
 * the golden tests pin), and every legacy output is FNV-hashed and
 * compared to the engine's —
 * divergence is fatal (exit 1), because then the speedups would not
 * compare equal work. Also reports the engine's measured GFLOP/s and
 * bytes/edge next to the ComputeCostModel's modelled seconds for the
 * same aggregation, the drift check behind the PhaseStats fields.
 *
 * Output is a single JSON object on stdout so CI can archive it
 * (tools/ci.sh writes BENCH_compute.json). Every timing is the median
 * seconds of one call over repeated trials (bench/harness.h), with its
 * interquartile range next to it. Pass --smoke for a seconds-long run.
 */
#include <cstdint>
#include <vector>

#include "compute/compute_cost.h"
#include "compute/kernel_engine.h"
#include "compute/tensor.h"
#include "harness.h"
#include "legacy_reference.h"
#include "sample/minibatch.h"
#include "sim/gpu_spec.h"
#include "util/rng.h"

namespace {

using namespace fastgl;
using compute::KernelEngine;
using compute::Tensor;
using reference::tensor_hash;

/** One thread-sweep row: median seconds against a legacy median. */
void
write_thread_row(util::JsonWriter &w, int threads, const bench::Spread &s,
                 double legacy_s, bool identical)
{
    w.begin_object();
    w.key("threads").integer(threads);
    bench::write_spread(w, "seconds", s);
    w.key("speedup_vs_legacy").fixed(bench::ratio(legacy_s, s.median), 3);
    w.key("identical").boolean(identical);
    w.end_object();
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke = bench::parse_smoke(argc, argv);
    const bench::Trials trials{1, smoke ? 5 : 11};
    bench::Witness witness;
    util::JsonWriter w;
    w.begin_object();
    w.key("bench").string("compute");
    w.key("smoke").boolean(smoke);

    // ---- GEMM: 256-dim shapes of the GNN update phase -------------
    const int64_t m = smoke ? 256 : 512, k = 256, n = 256;
    util::Rng rng(42);
    Tensor a = Tensor::randn(m, k, rng, 1.0f);
    for (int64_t i = 0; i < a.numel(); i += 7)
        a.data()[i] = 0.0f; // exercise the legacy zero-skip
    const Tensor b = Tensor::randn(k, n, rng, 1.0f);
    const Tensor bt = Tensor::randn(n, k, rng, 1.0f);
    const Tensor b2 = Tensor::randn(m, n, rng, 1.0f);

    w.key("gemm").begin_object();
    w.key("shape").begin_array().integer(m).integer(k).integer(n);
    w.end_array();
    KernelEngine single(1);
    Tensor lc(m, n), ec(m, n);
    Tensor lta(k, n), eta(k, n); // A^T[k,m] * B2[m,n]
    Tensor ltb(m, n), etb(m, n);
    const double flops = 2.0 * double(m) * double(n) * double(k);
    w.key("single_thread").begin_array();
    auto gemm_row = [&](const char *name, auto legacy, auto engine,
                        const Tensor &lout, const Tensor &eout) {
        const auto [legacy_s, engine_s] =
            bench::time_ab(trials, legacy, engine);
        w.begin_object();
        w.key("kernel").string(name);
        bench::write_spread(w, "legacy_s", legacy_s);
        bench::write_spread(w, "engine_s", engine_s);
        w.key("speedup").fixed(
            bench::ratio(legacy_s.median, engine_s.median), 3);
        w.key("engine_gflops")
            .fixed(bench::ratio(flops, engine_s.median) / 1e9, 2);
        w.key("identical").boolean(
            witness.check(tensor_hash(lout), tensor_hash(eout)));
        w.end_object();
        return std::pair(legacy_s.median, engine_s.median);
    };
    const auto [gemm_legacy_s, gemm_engine_s] = gemm_row(
        "gemm", [&] { reference::legacy_gemm(a, b, lc); },
        [&] { single.gemm(a, b, ec); }, lc, ec);
    gemm_row(
        "gemm_ta", [&] { reference::legacy_gemm_ta(a, b2, lta); },
        [&] { single.gemm_ta(a, b2, eta); }, lta, eta);
    gemm_row(
        "gemm_tb", [&] { reference::legacy_gemm_tb(a, bt, ltb); },
        [&] { single.gemm_tb(a, bt, etb); }, ltb, etb);
    w.end_array();

    // GEMM thread scaling (same output at every width, by design).
    w.key("parallel").begin_array();
    for (int threads : {1, 2, 4, 8}) {
        KernelEngine engine(threads);
        Tensor c(m, n);
        const bench::Spread s =
            bench::time_trials(trials, [&] { engine.gemm(a, b, c); });
        write_thread_row(w, threads, s, gemm_legacy_s,
                         witness.check(tensor_hash(lc), tensor_hash(c)));
    }
    w.end_array();
    w.key("engine_single_thread_gflops")
        .fixed(bench::ratio(flops, gemm_engine_s) / 1e9, 2);
    w.end_object();

    // ---- Aggregation: 2048 targets x deg 15, 256-dim --------------
    const int64_t targets = smoke ? 512 : 2048;
    const int64_t deg = 15;
    const int64_t sources = smoke ? 2048 : 8192;
    const int64_t dim = 256;
    sample::LayerBlock blk;
    blk.indptr = {0};
    for (int64_t t = 0; t < targets; ++t) {
        blk.targets.push_back(t % sources);
        for (int64_t d = 0; d < deg; ++d)
            blk.sources.push_back(static_cast<graph::NodeId>(
                rng.next_below(static_cast<uint64_t>(sources))));
        blk.indptr.push_back(
            static_cast<graph::EdgeId>(blk.sources.size()));
    }
    const Tensor feats = Tensor::randn(sources, dim, rng, 1.0f);
    std::vector<float> weights(static_cast<size_t>(blk.num_edges()));
    for (float &x : weights)
        x = static_cast<float>(rng.next_double());
    const Tensor gout = Tensor::randn(targets, dim, rng, 1.0f);

    w.key("aggregation").begin_object();
    w.key("targets").integer(targets);
    w.key("degree").integer(deg);
    w.key("dim").integer(dim);
    Tensor legacy_out(targets, dim), legacy_gin(sources, dim);
    const bench::Spread legacy_fwd = bench::time_trials(trials, [&] {
        reference::legacy_aggregate_forward(blk, weights, feats,
                                            legacy_out);
    });
    const bench::Spread legacy_bwd = bench::time_trials(trials, [&] {
        legacy_gin.fill_zero();
        reference::legacy_aggregate_backward(blk, weights, gout,
                                             legacy_gin);
    });
    bench::write_spread(w, "legacy_forward_s", legacy_fwd);
    bench::write_spread(w, "legacy_backward_s", legacy_bwd);

    double measured_agg_bytes_per_edge = 0.0;
    double measured_agg_gflops = 0.0;
    w.key("forward").begin_array();
    std::vector<std::pair<int, bench::Spread>> bwd_spreads;
    std::vector<bool> bwd_identical;
    for (int threads : {1, 2, 4, 8}) {
        KernelEngine engine(threads);
        Tensor out(targets, dim);
        Tensor gin(sources, dim);
        engine.aggregate_forward(blk, weights, feats, out); // warm-up
        engine.reset_stats();
        const bench::Spread fwd = bench::time_trials(
            {0, trials.trials},
            [&] { engine.aggregate_forward(blk, weights, feats, out); });
        write_thread_row(
            w, threads, fwd, legacy_fwd.median,
            witness.check(tensor_hash(legacy_out), tensor_hash(out)));
        const bench::Spread bwd =
            bench::time_trials({0, trials.trials}, [&] {
                gin.fill_zero();
                engine.aggregate_backward(blk, weights, gout, gin);
            });
        bwd_spreads.emplace_back(threads, bwd);
        bwd_identical.push_back(
            witness.check(tensor_hash(legacy_gin), tensor_hash(gin)));
        if (threads == 4) {
            measured_agg_bytes_per_edge =
                engine.stats().agg_bytes_per_edge();
            measured_agg_gflops = engine.stats().agg_gflops();
        }
    }
    w.end_array();
    w.key("backward_reverse_csr").begin_array();
    for (size_t i = 0; i < bwd_spreads.size(); ++i)
        write_thread_row(w, bwd_spreads[i].first, bwd_spreads[i].second,
                         legacy_bwd.median, bwd_identical[i]);
    w.end_array();
    w.key("measured_gflops_4t").fixed(measured_agg_gflops, 2);
    w.key("measured_bytes_per_edge").fixed(measured_agg_bytes_per_edge, 1);

    // ---- Modelled GPU seconds for the same aggregation ------------
    compute::ComputeCostModel cost_model(
        sim::rtx3090(), compute::ComputePlan::kMemoryAware);
    const sim::KernelCost modelled =
        cost_model.aggregation_cost(blk, static_cast<int>(dim));
    w.key("modelled_gpu_seconds").fixed(modelled.seconds, 6);
    w.key("modelled_gpu_gflops").fixed(modelled.gflops(), 2);
    w.end_object();

    w.end_object();
    return witness.finish(w);
}
