/**
 * @file
 * Modelled-epoch scenario: core::Pipeline::run_epoch on a fresh Pipeline
 * per repetition (no numerics run). The traced run rebuilds the
 * Match-Reorder epoch from public calls — BatchSplitter,
 * NeighborSampler::sample with the per-batch RNG stream,
 * greedy_reorder_max_overlap per window and Matcher::plan per batch —
 * and fails unless its row counts equal the Pipeline's EpochResult.
 */
#include <cstdio>
#include <optional>

#include "common.h"
#include "match/reorder.h"
#include "sample/frequency_hashmap.h"
#include "util/rng.h"
#include "util/thread_pool.h"

using namespace fastgl;

namespace perfbench {

namespace {

bool
same_result(const core::EpochResult &a, const core::EpochResult &b)
{
    return a.phases.sample == b.phases.sample &&
           a.phases.id_map == b.phases.id_map && a.phases.io == b.phases.io &&
           a.phases.compute == b.phases.compute &&
           a.phases.allreduce == b.phases.allreduce &&
           a.epoch_seconds == b.epoch_seconds && a.batches == b.batches &&
           a.nodes_loaded == b.nodes_loaded &&
           a.nodes_reused == b.nodes_reused && a.cache_hits == b.cache_hits &&
           a.bytes_loaded == b.bytes_loaded &&
           a.sampled_instances == b.sampled_instances &&
           a.unique_nodes == b.unique_nodes;
}

/** Row counts of one replayed epoch. */
struct ReplayCounts
{
    int64_t loaded = 0;
    int64_t reused = 0;
    int64_t cache_hits = 0;
    int64_t instances = 0;
    int64_t uniques = 0;
    int64_t edges = 0;
};

/**
 * The Pipeline's epoch rebuilt from public calls, for the FastGL preset
 * (Match-Reorder with a presampled cache on top). Seeds mirror
 * core::Pipeline: the splitter uses opts.seed, batch i of epoch e samples
 * with derive_seed(opts.seed, e, i), and the presample that ranks the
 * feature cache uses epoch 0.
 */
class EpochReplay
{
  public:
    EpochReplay(const graph::Dataset &ds, const core::PipelineOptions &opts,
                const core::Pipeline &pipeline)
        : opts_(opts), trainers_(pipeline.total_trainers()),
          splitter_(ds.train_nodes,
                    opts.batch_size > 0 ? opts.batch_size : ds.batch_size,
                    opts.seed),
          pool_(2)
    {
        sample::NeighborSamplerOptions nopts;
        nopts.fanouts = opts.fanouts;
        nopts.seed = opts.seed + 101;
        sampler_.emplace(ds.graph, nopts);
        const int64_t rows = pipeline.cache_capacity_rows();
        if (rows <= 0)
            return;
        const int64_t presample = std::min<int64_t>(4, splitter_.num_batches());
        sample::FrequencyHashmap freq(
            static_cast<size_t>(presample * splitter_.batch_size()));
        for (int64_t b = 0; b < presample; ++b)
            freq.add_stream(sample_batch(0, b).nodes);
        const graph::NodeId n = ds.graph.num_nodes();
        cache_.emplace(
            n, match::presample_ranking(freq.uniques(), freq.counts(), n),
            rows);
    }

    /** Replay epoch number @p epoch (the Pipeline counts from 1). */
    ReplayCounts
    epoch(Tracer &tracer, int64_t epoch)
    {
        splitter_.shuffle_epoch();
        const int64_t num_batches = splitter_.num_batches();
        const size_t window =
            static_cast<size_t>(std::max(1, opts_.reorder_window));
        ReplayCounts counts;
        for (int g = 0; g < trainers_; ++g) {
            std::vector<int64_t> batches;
            for (int64_t b = g; b < num_batches; b += trainers_)
                batches.push_back(b);
            match::Matcher matcher;
            for (size_t w = 0; w < batches.size(); w += window) {
                const size_t end = std::min(batches.size(), w + window);
                std::vector<sample::SampledSubgraph> subgraphs;
                for (size_t i = w; i < end; ++i)
                    subgraphs.push_back(tracer.span("sample", [&] {
                        return sample_batch(epoch, batches[i]);
                    }));
                std::vector<int64_t> order(subgraphs.size());
                for (size_t i = 0; i < order.size(); ++i)
                    order[i] = static_cast<int64_t>(i);
                if (subgraphs.size() > 1) {
                    tracer.span("reorder", [&] {
                        std::vector<match::NodeSet> sets;
                        for (const auto &sg : subgraphs)
                            sets.emplace_back(sg.nodes);
                        const match::NodeSet *anchor =
                            matcher.resident().size() > 0
                                ? &matcher.resident()
                                : nullptr;
                        // The Pipeline shards windows of 8 or more
                        // batches over a pool; results are identical.
                        order = match::greedy_reorder_max_overlap(
                                    anchor, sets,
                                    sets.size() >= 8 ? &pool_ : nullptr)
                                    .order;
                    });
                }
                for (int64_t i : order) {
                    const sample::SampledSubgraph &sg =
                        subgraphs[static_cast<size_t>(i)];
                    const match::TransferPlan plan = tracer.span("plan", [&] {
                        return matcher.plan(match::NodeSet(sg.nodes));
                    });
                    int64_t cached = 0;
                    if (cache_)
                        for (graph::NodeId u : plan.load_nodes)
                            cached += cache_->contains(u) ? 1 : 0;
                    counts.loaded += plan.load_count() - cached;
                    counts.cache_hits += cached;
                    counts.reused += plan.overlap_nodes;
                    counts.instances += sg.instances;
                    counts.uniques += sg.num_nodes();
                    counts.edges += sg.total_edges();
                }
            }
        }
        return counts;
    }

  private:
    sample::SampledSubgraph
    sample_batch(int64_t epoch, int64_t index)
    {
        return sampler_->sample(
            splitter_.batch(index),
            util::derive_seed(opts_.seed, static_cast<uint64_t>(epoch),
                              static_cast<uint64_t>(index)));
    }

    const core::PipelineOptions &opts_;
    int trainers_;
    sample::BatchSplitter splitter_;
    std::optional<sample::NeighborSampler> sampler_;
    std::optional<match::StaticFeatureCache> cache_;
    util::ThreadPool pool_;
};

/** A step is one run_epoch on a fresh Pipeline; traced, the step also
 *  replays that epoch and compares its row counts. */
class EpochScenario final : public Scenario
{
  public:
    EpochScenario(const Workload &w, const graph::Dataset &ds,
                  const RunOptions &run, Report &report)
        : w_(w), ds_(ds), run_(run), report_(report)
    {}

    void
    step() override
    {
        core::Pipeline pipeline(ds_, w_.pipeline);
        const Clock::time_point t0 = Clock::now();
        const core::EpochResult result = pipeline.run_epoch();
        const double host = seconds_since(t0);
        rates_.push_back(double(result.batches) / host);
        if (reps_++ == 0)
            first_ = result;
        else
            report_.check(same_result(result, first_),
                          "fresh Pipeline " + std::to_string(reps_) +
                              " gives an identical EpochResult");
        if (!run_.trace)
            return;
        untraced_s_ += host;
        EpochReplay replay(ds_, w_.pipeline, pipeline);
        const ReplayCounts c =
            tracer_.span("epoch", [&] { return replay.epoch(tracer_, 1); });
        report_.check(c.loaded == result.nodes_loaded &&
                          c.reused == result.nodes_reused &&
                          c.cache_hits == result.cache_hits &&
                          c.instances == result.sampled_instances &&
                          c.uniques == result.unique_nodes,
                      "traced epoch replay row counts equal the Pipeline's");
        edges_ = c.edges;
    }

    bool enough() const override { return reps_ >= 3; }

    void
    finish() override
    {
        Report &r = report_;
        if (!run_.trace) {
            print_samples("pipeline.batches_per_s", rates_);
            r.metric("pipeline.batches_per_s", median(rates_), "1/s");
            r.metric("pipeline.modelled_epoch_ms", 1e3 * first_.epoch_seconds,
                     "ms");
            return;
        }
        std::fprintf(stderr, "epoch spans:\n%s", tracer_.summary().c_str());
        const double batches = double(first_.batches);
        auto per_span_ms = [&](const char *name) {
            const int64_t n = tracer_.count(name);
            return n ? 1e3 * tracer_.total(name) / double(n) : 0.0;
        };
        r.metric("sample.epoch_host_ms_per_batch", per_span_ms("sample"),
                 "ms");
        r.metric("sample.nodes_per_batch",
                 double(first_.unique_nodes) / batches, "count");
        r.metric("sample.edges_per_batch", double(edges_) / batches, "count");
        r.metric("sample.modelled_ms", 1e3 * first_.phases.sample, "ms");
        r.metric("sample.idmap_modelled_ms", 1e3 * first_.phases.id_map,
                 "ms");
        r.metric("match.reorder_host_ms_per_window", per_span_ms("reorder"),
                 "ms");
        r.metric("match.plan_host_ms_per_batch", per_span_ms("plan"), "ms");
        r.metric("match.reuse_frac", first_.reuse_fraction(), "frac");
        r.metric("match.pcie_mb_per_epoch",
                 double(first_.bytes_loaded) / 1e6, "MB");
        r.metric("match.io_modelled_ms", 1e3 * first_.phases.io, "ms");
        r.metric("compute.epoch_modelled_ms", 1e3 * first_.phases.compute,
                 "ms");
        r.metric("core.epoch_unattributed_frac",
                 (untraced_s_ - tracer_.children_of("epoch")) / untraced_s_,
                 "frac");
        r.metric("core.epoch_trace_overhead_frac",
                 tracer_.total("epoch") / untraced_s_ - 1.0, "frac");
    }

  private:
    const Workload &w_;
    const graph::Dataset &ds_;
    const RunOptions &run_;
    Report &report_;
    int reps_ = 0;
    core::EpochResult first_;
    std::vector<double> rates_;
    Tracer tracer_;
    double untraced_s_ = 0.0;
    int64_t edges_ = 0;
};

} // namespace

std::unique_ptr<Scenario>
make_epoch_scenario(const Workload &w, const graph::Dataset &ds,
                    const RunOptions &run, Report &report)
{
    return std::make_unique<EpochScenario>(w, ds, run, report);
}

void
check_epoch_seed(const Workload &w, const graph::Dataset &ds, Report &report)
{
    core::PipelineOptions opts = w.pipeline;
    opts.max_batches = 8;
    core::Pipeline a(ds, opts), b(ds, opts);
    report.check(same_result(a.run_epoch(), b.run_epoch()),
                 "second seed: two fresh Pipelines agree");
}

} // namespace perfbench
