/**
 * @file
 * Extension validation: multi-model serving with priority classes and
 * cache warmup. One Server hosts a cheap GCN tier next to an expensive
 * GAT tier; a mixed-priority Poisson trace (paid / standard /
 * best-effort) is swept over arrival rates, once cold and once with
 * the caches warm-seeded from a recorded access-frequency trace. Emits
 * a single JSON object on stdout (tools/ci.sh archives it as
 * BENCH_serving_multimodel.json) and self-checks three load-bearing
 * claims on the deterministic virtual clock, exiting non-zero when any
 * fails:
 *
 *  (a) priority isolation: at ~2x overload, best-effort requests are
 *      shed while NO paid request is shed, dropped, or served late;
 *  (b) warmup pays: the warm-seeded run's embedding hit rate is higher
 *      and its served p99 latency lower than the cold run's at the
 *      same rate;
 *  (c) DRR fairness: both tiers dispatch batches at every rate — the
 *      cheap tier is not starved behind the expensive one.
 *
 * All latencies/decisions are modelled seconds from measured counts,
 * so the numbers — and therefore the checks — are bit-identical on
 * every host. Pass --smoke for a seconds-long run.
 */
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "fastgl.h"
#include "harness.h"

namespace {

using namespace fastgl;

struct Row
{
    bool warmed;
    double rate_rps;
    serve::ServingStats stats;
};

/**
 * Record per-node access frequencies the way a training epoch sees
 * them: sample every train batch once and count subgraph appearances
 * (what `fastgl_cli train --save-warmup` captures with the full
 * numeric Trainer; the bench skips the arithmetic, which does not
 * change which nodes are touched).
 */
match::WarmupTrace
record_warmup(const graph::Dataset &ds, uint64_t seed)
{
    match::WarmupTrace trace;
    trace.frequencies.assign(
        static_cast<size_t>(ds.graph.num_nodes()), 0);
    sample::NeighborSamplerOptions nopts;
    nopts.fanouts = {5, 10, 15};
    nopts.seed = seed;
    sample::NeighborSampler sampler(ds.graph, nopts);
    const size_t batch = static_cast<size_t>(ds.batch_size);
    const auto &train = ds.train_nodes;
    for (size_t begin = 0; begin < train.size(); begin += batch) {
        const size_t end = std::min(train.size(), begin + batch);
        const sample::SampledSubgraph sg = sampler.sample(
            std::span<const graph::NodeId>(train.data() + begin,
                                           end - begin),
            util::derive_seed(seed, 0x77A2, begin));
        for (graph::NodeId u : sg.nodes)
            ++trace.frequencies[static_cast<size_t>(u)];
    }
    return trace;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke = bench::parse_smoke(argc, argv);

    graph::ReplicaOptions ropts;
    ropts.materialize_features = false;
    if (smoke)
        ropts.size_factor = 0.25;
    const graph::Dataset ds =
        graph::load_replica(graph::DatasetId::kProducts, ropts);
    const match::WarmupTrace warmup = record_warmup(ds, 17);

    const int64_t num_requests = smoke ? 768 : 2048;
    const double slo = 20e-3;
    // The top rate is the ~2x-overload point for check (a); the
    // moderate rate is where warmup shows up in the tail, check (b).
    const double moderate = 15e3;
    const double overload = 30e3;
    const std::vector<double> rates =
        smoke ? std::vector<double>{moderate, overload}
              : std::vector<double>{5e3, moderate, 25e3, overload};

    auto run = [&](double rate, bool warm) {
        serve::ServerOptions sopts;
        sopts.worker_threads = 4;
        serve::ModelTier cheap;
        cheap.name = "gcn";
        cheap.model.type = compute::ModelType::kGcn;
        serve::ModelTier expensive;
        expensive.name = "gat";
        expensive.model.type = compute::ModelType::kGat;
        expensive.batcher.max_batch = 16;
        sopts.models = {cheap, expensive};
        sopts.admission.max_pending = 64;
        // Early-drop headroom shields paid traffic twice over: lower
        // classes are dropped while the backlog is still survivable.
        sopts.admission.deadline_headroom = {0.0, 5e-3, 10e-3};
        if (warm)
            sopts.warmup = warmup;
        sopts.seed = 11;
        serve::Server server(ds, sopts);

        serve::LoadGeneratorOptions lopts;
        lopts.rate_rps = rate;
        lopts.num_requests = num_requests;
        lopts.slo_deadline = slo;
        lopts.class_mix = {0.3, 0.4, 0.3};
        lopts.class_slo_scale = {1.0, 1.5, 2.0};
        lopts.model_mix = {0.7, 0.3};
        lopts.seed = 13;
        serve::LoadGenerator gen(server.popularity(), lopts);
        server.serve(gen.generate());
        return server.last_stats();
    };

    std::vector<Row> rows;
    for (double rate : rates) {
        rows.push_back({false, rate, run(rate, false)});
        rows.push_back({true, rate, run(rate, true)});
    }

    auto find = [&rows](bool warmed, double rate) -> const Row & {
        for (const Row &row : rows) {
            if (row.warmed == warmed && row.rate_rps == rate)
                return row;
        }
        std::fprintf(stderr, "missing sweep row %s@%.0f\n",
                     warmed ? "warm" : "cold", rate);
        std::exit(2);
    };

    // Check (a): strict priority isolation under overload (cold run —
    // the harder case, no pre-seeded hits absorbing load).
    const serve::ServingStats &over = find(false, overload).stats;
    const serve::PriorityClassStats &paid = over.per_class[0];
    const serve::PriorityClassStats &be = over.per_class[2];
    const bool isolates = be.shed_queue > 0 && paid.shed_queue == 0 &&
                          paid.dropped_deadline == 0 &&
                          paid.served_late == 0 &&
                          paid.served == paid.offered;

    // Check (b): the warmed run beats the cold run at the moderate
    // rate on both hit rate and served tail.
    const serve::ServingStats &cold = find(false, moderate).stats;
    const serve::ServingStats &warm = find(true, moderate).stats;
    const bool warmup_pays =
        warm.warmed_rows > 0 &&
        warm.embedding_hit_rate > cold.embedding_hit_rate &&
        warm.p99_latency < cold.p99_latency;

    // Check (c): no tier is starved anywhere in the sweep.
    bool fair = true;
    bool p99_finite = true;
    for (const Row &row : rows) {
        for (const serve::ModelTierStats &tier : row.stats.per_model)
            fair = fair && tier.batches > 0;
        p99_finite = p99_finite && std::isfinite(row.stats.p99_latency);
    }

    const bool ok = isolates && warmup_pays && fair && p99_finite;

    util::JsonWriter w;
    w.begin_object();
    w.key("bench").string("serving_multimodel");
    w.key("smoke").boolean(smoke);
    w.key("dataset").string(ds.name);
    w.key("num_requests").integer(num_requests);
    w.key("slo_deadline_s").general(slo, 6);
    w.key("tiers").begin_array().string("gcn").string("gat").end_array();
    w.key("class_mix").begin_array();
    w.fixed(0.3, 1).fixed(0.4, 1).fixed(0.3, 1).end_array();
    w.key("model_mix").begin_array().fixed(0.7, 1).fixed(0.3, 1);
    w.end_array();
    w.key("sweep").begin_array();
    for (const Row &row : rows) {
        const serve::ServingStats &st = row.stats;
        w.begin_object();
        w.key("warmed").boolean(row.warmed);
        w.key("rate_rps").fixed(row.rate_rps, 0);
        w.key("served").integer(st.served);
        w.key("served_late").integer(st.served_late);
        w.key("shed_rate").fixed(st.shed_rate, 4);
        w.key("p99_ms").fixed(st.p99_latency * 1e3, 4);
        w.key("embedding_hit_rate").fixed(st.embedding_hit_rate, 3);
        w.key("warmed_rows").integer(st.warmed_rows);
        w.key("classes").begin_object();
        for (size_t c = 0; c < serve::kNumPriorityClasses; ++c) {
            const serve::PriorityClassStats &cls = st.per_class[c];
            w.key(serve::priority_name(static_cast<serve::Priority>(c)));
            w.begin_object();
            w.key("offered").integer(cls.offered);
            w.key("served").integer(cls.served);
            w.key("late").integer(cls.served_late);
            w.key("shed").integer(cls.shed_queue + cls.dropped_deadline);
            w.key("p99_ms").fixed(cls.p99_latency * 1e3, 4);
            w.end_object();
        }
        w.end_object();
        w.key("tiers").begin_object();
        for (const serve::ModelTierStats &tier : st.per_model) {
            w.key(tier.name).begin_object();
            w.key("offered").integer(tier.offered);
            w.key("served").integer(tier.served);
            w.key("batches").integer(tier.batches);
            w.key("mean_batch").fixed(tier.mean_batch_size, 2);
            w.key("busy_ms").fixed(tier.gpu_busy_seconds * 1e3, 3);
            w.end_object();
        }
        w.end_object();
        w.key("fingerprint").hash(st.fingerprint);
        w.end_object();
    }
    w.end_array();
    w.key("cold_p99_ms").fixed(cold.p99_latency * 1e3, 4);
    w.key("warmed_p99_ms").fixed(warm.p99_latency * 1e3, 4);
    w.key("warmup_p99_delta_ms")
        .fixed((cold.p99_latency - warm.p99_latency) * 1e3, 4);
    w.key("checks").begin_object();
    w.key("paid_isolated_under_overload").boolean(isolates);
    w.key("warmup_lifts_hits_and_tail").boolean(warmup_pays);
    w.key("no_tier_starved").boolean(fair);
    w.key("all_p99_finite").boolean(p99_finite);
    w.end_object();
    w.key("ok").boolean(ok);
    w.end_object();
    return bench::finish(w, ok);
}
