/**
 * @file
 * Training scenario: core::Trainer::train_epoch on a fresh Trainer per
 * repetition. The traced run replays the Trainer's epoch loop through
 * the public calls it makes — BatchSplitter, NeighborSampler::sample,
 * GatherEngine, GnnModel::forward, softmax_cross_entropy,
 * zero_grad/backward, Optimizer::step — each inside a span, and fails
 * unless its per-batch losses equal the Trainer's bit for bit.
 */
#include <cstdio>
#include <memory>

#include "common.h"

using namespace fastgl;

namespace perfbench {

namespace {

/** Epochs per training repetition; the last one gives final_loss. */
constexpr int kEpochs = 4;

/** Store, cache and peer counters of one epoch. */
struct EpochCounters
{
    int64_t storage_rows = 0;
    int64_t demand_blocks = 0;
    int64_t prefetch_hits = 0;
    match::PartitionCacheCounters shard;
    int64_t gather_hits = 0;
    int64_t gather_misses = 0;
    uint64_t peer_bytes = 0;

    bool
    operator==(const EpochCounters &o) const
    {
        return storage_rows == o.storage_rows &&
               demand_blocks == o.demand_blocks &&
               prefetch_hits == o.prefetch_hits &&
               shard.local_hits == o.shard.local_hits &&
               shard.remote_hits == o.shard.remote_hits &&
               shard.misses == o.shard.misses &&
               gather_hits == o.gather_hits &&
               gather_misses == o.gather_misses &&
               peer_bytes == o.peer_bytes;
    }
};

/** Modelled outputs of one training repetition; bit-identical for a
 *  given seed, so repetitions compare with ==. */
struct TrainOutcome
{
    std::vector<double> losses; ///< Every batch of every epoch.
    std::vector<double> epoch_mean_loss;
    std::vector<double> modelled_epoch_s;
    std::vector<double> modelled_compute_s;
    std::vector<double> stall_s;
    std::vector<double> hidden_s;
    std::vector<EpochCounters> counters;

    void
    add(const core::TrainEpochStats &st)
    {
        losses.insert(losses.end(), st.iteration_losses.begin(),
                      st.iteration_losses.end());
        epoch_mean_loss.push_back(st.mean_loss);
        modelled_epoch_s.push_back(st.modelled_epoch_seconds);
        modelled_compute_s.push_back(st.modelled_compute_seconds);
        stall_s.push_back(st.storage_stall_seconds);
        hidden_s.push_back(st.storage_hidden_seconds);
        EpochCounters c;
        c.storage_rows = st.store.storage_rows;
        c.demand_blocks = st.store.demand_blocks;
        c.prefetch_hits = st.store.prefetch_hits;
        c.shard = st.shard_totals;
        c.gather_hits = st.gather.cache_hits;
        c.gather_misses = st.gather.cache_misses;
        for (const sim::PeerLinkStats &link : st.peer_links)
            c.peer_bytes += link.bytes;
        counters.push_back(c);
    }

    bool operator==(const TrainOutcome &) const = default;
};

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / double(v.size());
}

/** The Trainer's epoch loop rebuilt from public calls. Seeds and
 *  construction mirror core::Trainer with the workloads' options (Adam,
 *  no input dropout, whole epochs): the model and splitter use
 *  opts.seed, the sampler opts.seed + 1. */
class TrainReplay
{
  public:
    TrainReplay(const graph::Dataset &ds, const core::TrainerOptions &opts,
                const match::StaticFeatureCache *cache)
        : ds_(ds), cache_(cache),
          engine_(opts.compute_threads), gather_(opts.gather_threads),
          splitter_(ds.train_nodes,
                    opts.batch_size > 0 ? opts.batch_size : ds.batch_size,
                    opts.seed),
          optimizer_(opts.learning_rate)
    {
        compute::ModelConfig cfg = opts.model;
        if (cfg.in_dim == 0)
            cfg.in_dim = ds.features.dim();
        if (cfg.num_classes == 0)
            cfg.num_classes = ds.features.num_classes();
        cfg.num_layers = static_cast<int>(opts.fanouts.size());
        cfg.seed = opts.seed;
        model_ = std::make_unique<compute::GnnModel>(cfg);
        model_->set_engine(&engine_);
        sample::NeighborSamplerOptions nopts;
        nopts.fanouts = opts.fanouts;
        nopts.seed = opts.seed + 1;
        sampler_ = std::make_unique<sample::NeighborSampler>(ds.graph, nopts);
    }

    /** One epoch; appends every batch loss to @p losses. */
    void
    epoch(Tracer &tracer, std::vector<double> &losses)
    {
        splitter_.shuffle_epoch();
        for (int64_t b = 0; b < splitter_.num_batches(); ++b) {
            const sample::SampledSubgraph sg = tracer.span(
                "sample", [&] { return sampler_->sample(splitter_.batch(b)); });
            // Release the previous panel first so its arena is reused,
            // as the Trainer does.
            panel_.release();
            tracer.span("gather", [&] {
                panel_ = cache_ ? gather_
                                      .gather_cached(ds_.features, sg.nodes,
                                                     *cache_)
                                      .panel
                                : gather_.gather(ds_.features, sg.nodes);
            });
            const compute::Tensor x = compute::Tensor::view(
                panel_.data(), panel_.rows(), panel_.dim());
            const compute::Tensor logits = tracer.span(
                "forward", [&] { return model_->forward(sg, x); });
            std::vector<int> labels(static_cast<size_t>(sg.num_seeds));
            for (int64_t i = 0; i < sg.num_seeds; ++i)
                labels[static_cast<size_t>(i)] = ds_.features.label(
                    sg.nodes[static_cast<size_t>(i)]);
            const compute::LossResult loss = tracer.span("loss", [&] {
                return compute::softmax_cross_entropy(logits, labels);
            });
            tracer.span("backward", [&] {
                model_->zero_grad();
                model_->backward(sg, loss.grad_logits);
            });
            tracer.span("optimizer",
                        [&] { optimizer_.step(model_->parameters()); });
            losses.push_back(loss.loss);
        }
    }

    const compute::KernelEngineStats &kernels() const
    {
        return engine_.stats();
    }
    const match::GatherStats &gathers() const { return gather_.stats(); }

  private:
    const graph::Dataset &ds_;
    const match::StaticFeatureCache *cache_;
    compute::KernelEngine engine_;
    match::GatherEngine gather_;
    match::FeaturePanel panel_;
    sample::BatchSplitter splitter_;
    std::unique_ptr<compute::GnnModel> model_;
    compute::Adam optimizer_;
    std::unique_ptr<sample::NeighborSampler> sampler_;
};

/** Train @p epochs on a fresh Trainer. */
TrainOutcome
train_fresh(const graph::Dataset &ds, const core::TrainerOptions &opts,
            int epochs)
{
    core::Trainer trainer(ds, opts);
    TrainOutcome out;
    for (int e = 0; e < epochs; ++e)
        out.add(trainer.train_epoch());
    return out;
}

/** The workload's trainer with every accounting-only option off. */
core::TrainerOptions
in_memory(core::TrainerOptions opts)
{
    opts.num_gpus = 1;
    opts.feature_cache_ratio = 0.0;
    opts.storage = store::TieredStoreOptions{};
    return opts;
}

bool
accounting_on(const core::TrainerOptions &opts)
{
    return opts.num_gpus > 1 || opts.feature_cache_ratio > 0.0 ||
           opts.storage.storage != store::StorageKind::kNone;
}

/**
 * A repetition is a fresh Trainer trained for kEpochs epochs;
 * a step is one of its epochs. Traced, each step also replays the same
 * epoch on the repetition's TrainReplay and compares the losses.
 */
class TrainScenario final : public Scenario
{
  public:
    TrainScenario(const Workload &w, const graph::Dataset &ds,
                  const RunOptions &run, Report &report)
        : w_(w), ds_(ds), run_(run), report_(report)
    {}

    void
    step() override
    {
        if (!trainer_ || epoch_ == kEpochs)
            start_repetition();
        const Clock::time_point t0 = Clock::now();
        const core::TrainEpochStats st = trainer_->train_epoch();
        const double host = seconds_since(t0);
        current_.add(st);
        if (!run_.trace) {
            rates_.push_back(double(ds_.train_nodes.size()) / host);
            gemm_flops_ += st.measured_compute.gemm_flops;
            gemm_seconds_ += st.measured_compute.gemm_seconds;
        } else {
            untraced_s_ += host;
            std::vector<double> losses;
            tracer_.span("epoch", [&] { replay_->epoch(tracer_, losses); });
            report_.check(losses == st.iteration_losses,
                          "traced train replay losses equal "
                          "Trainer::train_epoch bit for bit");
        }
        if (++epoch_ == kEpochs) {
            if (reps_ == 0)
                first_ = current_;
            else
                report_.check(current_ == first_,
                              "train repetition " + std::to_string(reps_) +
                                  " modelled outputs identical");
            ++reps_;
        }
    }

    bool enough() const override { return reps_ >= 2; }

    void
    finish() override
    {
        absorb_replay();
        if (accounting_on(w_.trainer)) {
            // Accounting-only contract: caches, storage and peer
            // modelling never move a loss.
            report_.check(
                train_fresh(ds_, in_memory(w_.trainer), kEpochs).losses ==
                    first_.losses,
                "out-of-core losses equal the in-memory losses");
        }
        if (run_.trace)
            per_module_metrics();
        else
            end_to_end_metrics();
    }

  private:
    void
    start_repetition()
    {
        absorb_replay();
        trainer_.reset();
        trainer_ = std::make_unique<core::Trainer>(ds_, w_.trainer);
        if (run_.trace)
            replay_ = std::make_unique<TrainReplay>(
                ds_, w_.trainer, trainer_->feature_cache());
        current_ = TrainOutcome{};
        epoch_ = 0;
    }

    /** Fold the replay's kernel and gather counters in, then drop it
     *  (before its Trainer, whose feature cache it reads). */
    void
    absorb_replay()
    {
        if (!replay_)
            return;
        replay_kernels_ += replay_->kernels();
        replay_gathers_ += replay_->gathers();
        replay_.reset();
    }

    void
    end_to_end_metrics()
    {
        std::printf("# compute.gemm_gflops %.6g (untraced Trainer)\n",
                    gemm_seconds_ > 0.0 ? gemm_flops_ / gemm_seconds_ / 1e9
                                        : 0.0);
        print_samples("train.seeds_per_s", rates_);
        report_.metric("train.seeds_per_s", median(rates_), "1/s");
        report_.metric("train.modelled_epoch_ms",
                       1e3 * mean(first_.modelled_epoch_s), "ms");
        report_.metric("train.final_loss", first_.epoch_mean_loss.back(),
                       "nats");
    }

    void
    per_module_metrics()
    {
        std::fprintf(stderr, "train spans:\n%s", tracer_.summary().c_str());
        const double batches = double(tracer_.count("sample"));
        auto per_batch_ms = [&](const char *name) {
            return 1e3 * tracer_.total(name) / batches;
        };
        Report &r = report_;
        r.metric("sample.host_ms_per_batch", per_batch_ms("sample"), "ms");
        r.metric("match.gather_host_ms_per_batch", per_batch_ms("gather"),
                 "ms");
        r.metric("match.gather_gbps", replay_gathers_.gb_per_s(), "GB/s");
        r.metric("compute.forward_host_ms_per_batch", per_batch_ms("forward"),
                 "ms");
        r.metric("compute.backward_host_ms_per_batch",
                 per_batch_ms("backward"), "ms");
        r.metric("compute.loss_host_ms_per_batch", per_batch_ms("loss"), "ms");
        r.metric("compute.optimizer_host_ms_per_batch",
                 per_batch_ms("optimizer"), "ms");
        r.metric("compute.gemm_gflops", replay_kernels_.gemm_gflops(),
                 "GFLOP/s");
        r.metric("compute.agg_gflops", replay_kernels_.agg_gflops(),
                 "GFLOP/s");
        r.metric("compute.agg_bytes_per_edge",
                 replay_kernels_.agg_bytes_per_edge(), "B");
        r.metric("compute.modelled_ms", 1e3 * mean(first_.modelled_compute_s),
                 "ms");

        EpochCounters sum;
        for (const EpochCounters &c : first_.counters) {
            sum.storage_rows += c.storage_rows;
            sum.demand_blocks += c.demand_blocks;
            sum.prefetch_hits += c.prefetch_hits;
            sum.shard.local_hits += c.shard.local_hits;
            sum.shard.remote_hits += c.shard.remote_hits;
            sum.shard.misses += c.shard.misses;
            sum.gather_hits += c.gather_hits;
            sum.gather_misses += c.gather_misses;
            sum.peer_bytes += c.peer_bytes;
        }
        const double epochs = double(first_.counters.size());
        // The sharded multi-GPU cache when there is one, else the single
        // feature cache the gather pass accounts.
        const int64_t shard_lookups = sum.shard.lookups();
        const int64_t gather_lookups = sum.gather_hits + sum.gather_misses;
        double hit_rate = 0.0;
        if (shard_lookups > 0)
            hit_rate = sum.shard.hit_rate();
        else if (gather_lookups > 0)
            hit_rate = double(sum.gather_hits) / double(gather_lookups);
        r.metric("match.cache_hit_rate", hit_rate, "frac");
        r.metric("match.remote_hit_frac",
                 shard_lookups > 0 ? double(sum.shard.remote_hits) /
                                         double(shard_lookups)
                                   : 0.0,
                 "frac");
        r.metric("sim.peer_mb_per_epoch", double(sum.peer_bytes) / epochs / 1e6,
                 "MB");
        // Shares rather than seconds: both read 0 where the store is
        // bypassed. The stall in ms is train.modelled_epoch_ms minus
        // compute.modelled_ms.
        const double stall = mean(first_.stall_s);
        const double hidden = mean(first_.hidden_s);
        r.metric("store.stall_frac", stall / mean(first_.modelled_epoch_s),
                 "frac");
        r.metric("store.hidden_frac",
                 stall + hidden > 0.0 ? hidden / (stall + hidden) : 0.0,
                 "frac");
        r.metric("store.storage_rows", double(sum.storage_rows) / epochs,
                 "count");
        r.metric("store.demand_blocks", double(sum.demand_blocks) / epochs,
                 "count");
        r.metric("store.prefetch_hits", double(sum.prefetch_hits) / epochs,
                 "count");

        // Both against the untraced Trainer epochs of the same steps.
        r.metric("core.unattributed_frac",
                 (untraced_s_ - tracer_.children_of("epoch")) / untraced_s_,
                 "frac");
        r.metric("core.trace_overhead_frac",
                 tracer_.total("epoch") / untraced_s_ - 1.0, "frac");
    }

    const Workload &w_;
    const graph::Dataset &ds_;
    const RunOptions &run_;
    Report &report_;
    std::unique_ptr<core::Trainer> trainer_;
    std::unique_ptr<TrainReplay> replay_;
    int epoch_ = 0;
    int reps_ = 0;
    TrainOutcome current_;
    TrainOutcome first_;
    std::vector<double> rates_;
    double gemm_flops_ = 0.0;
    double gemm_seconds_ = 0.0;
    Tracer tracer_;
    double untraced_s_ = 0.0;
    compute::KernelEngineStats replay_kernels_;
    match::GatherStats replay_gathers_;
};

} // namespace

std::unique_ptr<Scenario>
make_train_scenario(const Workload &w, const graph::Dataset &ds,
                    const RunOptions &run, Report &report)
{
    return std::make_unique<TrainScenario>(w, ds, run, report);
}

void
check_train_seed(const Workload &w, const graph::Dataset &ds, Report &report)
{
    core::TrainerOptions opts = w.trainer;
    opts.max_batches = 4;
    const bool accounting = accounting_on(opts);
    report.check(train_fresh(ds, opts, 1).losses ==
                     train_fresh(ds, accounting ? in_memory(opts) : opts, 1)
                         .losses,
                 accounting ? "second seed: out-of-core losses equal "
                              "in-memory"
                            : "second seed: two fresh Trainers agree");
}

} // namespace perfbench
