/**
 * @file
 * Feature-gather fast-path validation: before/after throughput of
 * match::GatherEngine's batched SIMD gather against the legacy
 * feature-staging path (a fresh zero-filled compute::Tensor plus a
 * per-row bounds-checked FeatureStore::gather_row loop — verbatim the
 * pre-engine Trainer::gather_features / serve sequencer code), of the
 * fused gather+cache-accounting pass against the legacy
 * lookup_batch-then-stage two-pass, and of the one-pass
 * FrequencyHashmap presample against the legacy dense count-then-sort
 * two-pass. The legacy paths come from tests/reference/ (the copy the
 * golden tests pin), and each is FNV-witnessed against the fast path —
 * divergence is fatal (exit 1), because then the speedups would not
 * compare equal work.
 *
 * Two gather geometries are measured: a mid-size PCIe batch
 * (8192 x 256) where the copy itself dominates, and a wide-feature
 * batch (8192 x 1024, a 32 MB panel) where the legacy path's per-batch
 * allocation churn dominates — panels that size are mmap'd and
 * munmap'd by the allocator on every single batch, so the legacy loop
 * re-page-faults and re-zeroes the staging buffer each time, while the
 * engine's pooled arena is allocated once and stays hot.
 *
 * Output is a single JSON object on stdout so CI can archive it
 * (tools/ci.sh writes BENCH_gather.json). Every timing is the median
 * seconds of one call over repeated trials (bench/harness.h), with its
 * interquartile range next to it. Pass --smoke for a seconds-long run.
 */
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "compute/tensor.h"
#include "graph/feature_store.h"
#include "harness.h"
#include "legacy_reference.h"
#include "match/feature_cache.h"
#include "match/gather_engine.h"
#include "sample/frequency_hashmap.h"
#include "util/rng.h"

namespace {

using namespace fastgl;
using graph::FeatureStore;
using graph::NodeId;
using match::GatherEngine;
using reference::legacy_gather_features;
using reference::panel_hash;
using reference::tensor_hash;

struct GatherCase
{
    const char *name;
    NodeId num_nodes;
    int dim;
    int64_t batch;
};

std::vector<NodeId>
random_batch(util::Rng &rng, NodeId num_nodes, int64_t batch)
{
    std::vector<NodeId> nodes;
    nodes.reserve(static_cast<size_t>(batch));
    for (int64_t i = 0; i < batch; ++i)
        nodes.push_back(static_cast<NodeId>(
            rng.next_below(static_cast<uint64_t>(num_nodes))));
    return nodes;
}

/**
 * Legacy staging + the engine thread sweep for one geometry; returns
 * the best engine speedup over the legacy staging.
 */
double
write_gather_case(util::JsonWriter &w, bench::Witness &witness,
                  bench::Trials trials, const GatherCase &cfg)
{
    FeatureStore store(cfg.num_nodes, cfg.dim, 8, 0xFA57, true);
    util::Rng rng(42);
    const std::vector<NodeId> nodes =
        random_batch(rng, cfg.num_nodes, cfg.batch);
    const double panel_gb =
        double(cfg.batch) * cfg.dim * sizeof(float) / 1e9;

    const bench::Spread legacy = bench::time_trials(
        trials, [&] { legacy_gather_features(store, nodes); });
    const uint64_t want = tensor_hash(legacy_gather_features(store, nodes));
    w.begin_object();
    w.key("name").string(cfg.name);
    w.key("num_nodes").integer(cfg.num_nodes);
    w.key("dim").integer(cfg.dim);
    w.key("batch").integer(cfg.batch);
    w.key("reps").integer(trials.trials);
    bench::write_spread(w, "legacy_s", legacy);
    w.key("legacy_gb_per_s")
        .fixed(bench::ratio(panel_gb, legacy.median), 2);
    w.key("engine").begin_array();
    double best_engine_s = 0.0;
    for (const int threads : {1, 2, 4, 8}) {
        GatherEngine engine(threads);
        match::FeaturePanel panel;
        const bench::Spread s = bench::time_trials(trials, [&] {
            // Consume-then-release, the steady-state consumer pattern:
            // the arena goes back to the LIFO pool before the next
            // gather, which hands the same hot buffer straight back.
            panel.release();
            panel = engine.gather(store, nodes);
        });
        w.begin_object();
        w.key("threads").integer(threads);
        bench::write_spread(w, "seconds", s);
        w.key("gb_per_s").fixed(bench::ratio(panel_gb, s.median), 2);
        w.key("speedup_vs_legacy")
            .fixed(bench::ratio(legacy.median, s.median), 3);
        w.key("identical").boolean(witness.check(want, panel_hash(panel)));
        w.end_object();
        best_engine_s = best_engine_s == 0.0
                            ? s.median
                            : std::min(best_engine_s, s.median);
    }
    w.end_array();
    const double speedup = bench::ratio(legacy.median, best_engine_s);
    w.key("speedup_vs_legacy").fixed(speedup, 3);
    w.end_object();
    return speedup;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke = bench::parse_smoke(argc, argv);
    const bench::Trials trials{1, smoke ? 5 : 15};
    bench::Witness witness;
    util::JsonWriter w;
    w.begin_object();
    w.key("bench").string("gather");
    w.key("smoke").boolean(smoke);

    // ---- Batched gather: two geometries (see file comment) --------
    const GatherCase cases[] = {
        {"pcie_batch", smoke ? 20000 : 100000, 256, smoke ? 2048 : 8192},
        {"wide_features", smoke ? 8000 : 60000, 1024, smoke ? 1024 : 8192},
    };
    w.key("gather").begin_object();
    w.key("cases").begin_array();
    double best_speedup = 0.0;
    for (const GatherCase &cfg : cases)
        best_speedup = std::max(
            best_speedup, write_gather_case(w, witness, trials, cfg));
    w.end_array();
    w.key("best_speedup_vs_legacy").fixed(best_speedup, 3);
    w.end_object();

    // ---- Fused gather + cache accounting --------------------------
    const GatherCase &pcie = cases[0];
    FeatureStore store(pcie.num_nodes, pcie.dim, 8, 0xFA57, true);
    util::Rng rng(42);
    const std::vector<NodeId> nodes =
        random_batch(rng, pcie.num_nodes, pcie.batch);
    std::vector<NodeId> ranking(static_cast<size_t>(pcie.num_nodes));
    std::iota(ranking.begin(), ranking.end(), 0);
    match::StaticFeatureCache legacy_cache(pcie.num_nodes, ranking,
                                           pcie.num_nodes / 5);
    match::StaticFeatureCache fused_cache(pcie.num_nodes, ranking,
                                          pcie.num_nodes / 5);

    // Both sides run the same number of calls, so the caches' hit
    // totals are comparable. Single-threaded on both sides so the
    // delta isolates the fused accounting pass; the thread sweep lives
    // in the gather cases.
    int64_t legacy_misses = 0;
    compute::Tensor legacy_x;
    GatherEngine fused_engine(1);
    GatherEngine::CachedGather fused;
    const auto [legacy_cached_s, fused_s] = bench::time_ab(
        trials,
        [&] {
            // The historical cached gather: lookup_batch sweep, then
            // the staging.
            legacy_misses = legacy_cache.lookup_batch(nodes);
            legacy_x = legacy_gather_features(store, nodes);
        },
        [&] {
            fused.panel.release();
            fused = fused_engine.gather_cached(store, nodes, fused_cache);
        });
    const bool fused_identical =
        witness.check(tensor_hash(legacy_x), panel_hash(fused.panel)) &&
        witness.check(static_cast<uint64_t>(legacy_misses),
                      static_cast<uint64_t>(fused.misses)) &&
        witness.check(static_cast<uint64_t>(legacy_cache.hits()),
                      static_cast<uint64_t>(fused_cache.hits()));
    w.key("fused_cache_gather").begin_object();
    bench::write_spread(w, "legacy_two_pass_s", legacy_cached_s);
    bench::write_spread(w, "fused_s", fused_s);
    w.key("speedup").fixed(
        bench::ratio(legacy_cached_s.median, fused_s.median), 3);
    w.key("hits").integer(fused.hits);
    w.key("misses").integer(fused.misses);
    w.key("identical").boolean(fused_identical);
    w.end_object();

    // ---- Presample: count-while-dedup vs dense two-pass -----------
    // Representative regime: a presample only touches the nodes a few
    // warm-up batches expand to — a sparse subset of a large graph —
    // while the legacy dense pass allocates, zeroes, counts and
    // stable-sorts ALL num_nodes rows regardless. (When the stream
    // covers most of the graph the dense pass wins instead; presample
    // traces are never that dense.)
    const NodeId pre_nodes = smoke ? 500000 : 5000000;
    const int64_t stream_len = smoke ? 50000 : 400000;
    std::vector<NodeId> stream;
    stream.reserve(static_cast<size_t>(stream_len));
    for (int64_t i = 0; i < stream_len; ++i) {
        // Skewed like a presample trace: squaring biases toward 0.
        const uint64_t a =
            rng.next_below(static_cast<uint64_t>(pre_nodes));
        const uint64_t b =
            rng.next_below(static_cast<uint64_t>(pre_nodes));
        stream.push_back(static_cast<NodeId>(
            a * b / static_cast<uint64_t>(pre_nodes)));
    }

    const bench::Trials pre_trials{1, smoke ? 3 : 5};
    std::vector<NodeId> legacy_ranking, fused_ranking;
    const auto [legacy_pre_s, fused_pre_s] = bench::time_ab(
        pre_trials,
        [&] {
            legacy_ranking =
                reference::legacy_presample(stream, pre_nodes);
        },
        [&] {
            sample::FrequencyHashmap freq(
                static_cast<size_t>(stream_len) / 4);
            freq.add_stream(stream);
            fused_ranking = match::presample_ranking(
                freq.uniques(), freq.counts(), pre_nodes);
        });
    w.key("presample").begin_object();
    w.key("num_nodes").integer(pre_nodes);
    w.key("stream").integer(stream_len);
    w.key("reps").integer(pre_trials.trials);
    bench::write_spread(w, "legacy_two_pass_s", legacy_pre_s);
    bench::write_spread(w, "fused_one_pass_s", fused_pre_s);
    w.key("speedup").fixed(
        bench::ratio(legacy_pre_s.median, fused_pre_s.median), 3);
    w.key("identical").boolean(
        witness.check(legacy_ranking == fused_ranking));
    w.end_object();

    w.end_object();
    return witness.finish(w);
}
