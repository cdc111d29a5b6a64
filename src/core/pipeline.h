/**
 * @file
 * The epoch pipeline: orchestrates sample → (reorder) → match/cache →
 * transfer → compute across data-parallel GPUs, under any FrameworkConfig
 * preset, and produces modelled phase times from measured counts.
 *
 * This is the engine behind every end-to-end figure in the paper (Figs. 3,
 * 9, 10, 13, 14, 15): the sampling, hashing, matching and caching all
 * really execute; the seconds come from sim::KernelModel.
 *
 * An epoch runs as an overlapped stage graph — sampler threads, a
 * per-GPU gather/sequencer stage and a compute stage connected by
 * bounded queues (util::BoundedQueue) — the paper's Reorder-window
 * overlap (Fig. 5) executed with real threads. Two clocks coexist:
 *  - the *modelled* clock (EpochResult seconds) is the same bit for bit
 *    at any thread count: every batch samples from its own derived RNG
 *    stream (util::derive_seed) and each GPU's Match/Reorder chain is
 *    replayed in window order by a sequencer;
 *  - the *host* clock (EpochHostStats) shows the overlap: sampling of
 *    window w+1 proceeds while window w is matched and costed.
 */
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "compute/compute_cost.h"
#include "core/framework_config.h"
#include "core/phase_stats.h"
#include "core/timeline.h"
#include "graph/datasets.h"
#include "match/feature_cache.h"
#include "match/match.h"
#include "prof/profiler.h"
#include "sample/batch_splitter.h"
#include "sample/neighbor_sampler.h"
#include "sample/random_walk_sampler.h"
#include "sim/gpu_spec.h"
#include "util/bounded_queue.h"
#include "util/shutdown.h"
#include "util/thread_pool.h"

namespace fastgl {
namespace core {

/**
 * Concurrency of the epoch executor, plus observation and test hooks.
 * Nothing here changes a modelled number.
 */
struct ExecutorOptions
{
    /** Sampler producer threads (clamped to >= 1). */
    int sampler_threads = 2;
    /** Gather/sequencer threads; 0 = min(trainer GPUs, 4). */
    int gather_threads = 0;
    /** Compute drain threads (clamped to >= 1). */
    int compute_threads = 1;
    /**
     * Windows in flight between the sample and gather stages. Producers
     * block once this many windows are queued (backpressure): a slow
     * consumer throttles sampling instead of buffering the whole epoch.
     */
    size_t queue_depth = 4;
    /**
     * Optional per-stage recorder (caller-owned, may be null). The
     * epoch's per-batch modelled phases are fed into it *after* the
     * join, replayed in (gpu, position) order — never from the
     * concurrent drains, whose completion order varies with thread
     * count — so the feed is the same at any width and the EpochResult
     * is untouched. Successive epochs accumulate unless the caller
     * resets the profiler between them.
     */
    prof::Profiler *profiler = nullptr;

    // --- Test hooks (no-ops when unset; not for production use) ---
    /** Called in a producer thread before sampling batch @p index. */
    std::function<void(int64_t index)> sample_hook;
    /** Called in a gather thread after matching a window on @p gpu. */
    std::function<void(int gpu)> gather_hook;
    /** Called in a compute thread before costing batch @p index. */
    std::function<void(int64_t index)> compute_hook;
};

/** Everything configurable about one pipeline run. */
struct PipelineOptions
{
    FrameworkConfig fw = framework_preset(Framework::kFastGL);
    int num_gpus = 2;            ///< Paper's default evaluation setup.
    std::vector<int> fanouts = {5, 10, 15};
    compute::ModelConfig model;  ///< in_dim/num_classes 0 = from dataset.
    /**
     * Batches sampled per Reorder window (the paper's n). Windows also
     * bound how much host memory holds presampled subgraphs.
     */
    int reorder_window = 16;
    /**
     * Feature-cache capacity as a fraction of the full feature matrix.
     * Negative = derive from the (scale-adjusted) free device memory.
     */
    double cache_ratio = -1.0;
    int64_t max_batches = 0;     ///< Cap batches per epoch (0 = all).
    int64_t batch_size = 0;      ///< 0 = dataset default.
    uint64_t seed = 1;
    /** Use the PinSAGE random-walk sampler instead of k-hop (Table 7). */
    bool use_random_walk = false;
    sample::RandomWalkOptions walk;

    // --- Multi-machine extension (paper Section 7.1) ---
    /** Machines in the data-parallel job; each holds num_gpus GPUs. */
    int num_machines = 1;
    /** Inter-machine network bandwidth (default 100 Gb/s Ethernet). */
    double network_bw = 12.5e9;

    /** Host threads of run_epoch(); results are the same at any width. */
    ExecutorOptions executor;
};

/** Measured (host) execution statistics of one epoch. */
struct EpochHostStats
{
    /** Host wall-clock seconds of run_epoch(). */
    double wall_seconds = 0.0;
    /** Summed busy seconds per stage (excludes queue blocking). */
    double sample_busy_seconds = 0.0;
    double gather_busy_seconds = 0.0;
    double compute_busy_seconds = 0.0;
    int64_t windows_produced = 0;
    int64_t batches_completed = 0;
    /** True when request_stop() cut the epoch short. */
    bool stopped_early = false;
    util::QueueStats batch_queue;
    util::QueueStats compute_queue;
};

/**
 * Runs epochs for one dataset under one framework configuration.
 *
 * Stage graph of run_epoch() (arrows are BoundedQueues):
 *
 *   sampler threads ──windows──> gather/sequencer ──batches──> compute
 *   (per-thread sampler,          (per-GPU in-order:            (cost
 *    per-batch RNG stream)         Reorder + Match + cache)      model)
 *
 * An exception thrown in any stage fails both queues, winds every thread
 * down, and is rethrown from run_epoch(). request_stop() closes the
 * queues for a clean mid-epoch shutdown; run_epoch() then returns the
 * partial result and last_stats().stopped_early is set.
 */
class Pipeline
{
  public:
    Pipeline(const graph::Dataset &dataset, PipelineOptions opts,
             sim::GpuSpec spec = sim::rtx3090());

    /** Run one modelled epoch (shuffles batches first). */
    EpochResult run_epoch();

    /**
     * Ask a running epoch to shut down cleanly: queues are closed,
     * stages finish their current item and exit, run_epoch() returns
     * the partial result. Safe to call from any thread; idempotent.
     */
    void request_stop() { shutdown_.request_stop(); }

    /** True once request_stop() was called for the current epoch. */
    bool stop_requested() const { return shutdown_.stop_requested(); }

    /** Measured host-side statistics of the most recent epoch. */
    const EpochHostStats &last_stats() const { return stats_; }

    const PipelineOptions &options() const { return opts_; }
    const sim::GpuSpec &gpu() const { return spec_; }

    /** Rows the feature cache holds (0 when no cache is configured). */
    int64_t cache_capacity_rows() const { return cache_rows_; }

    /** Trainer GPU count per machine after sampler dedication. */
    int trainer_gpus() const { return trainers_; }

    /** Trainer GPUs across all machines. */
    int
    total_trainers() const
    {
        return trainers_ * std::max(1, opts_.num_machines);
    }

    /** Sampler GPU count (0 unless pipelined sampling). */
    int sampler_gpus() const { return samplers_; }

    /** Modelled parameter bytes of the configured model. */
    uint64_t param_bytes() const { return param_bytes_; }

    /**
     * Per-batch stage durations of trainer GPU 0 from the most recent
     * run_epoch(), for event-driven validation and timeline export
     * (core::simulate_epoch_multi with this one batch list).
     */
    const std::vector<BatchStageTimes> &
    last_epoch_stage_times() const
    {
        return last_stages_;
    }

  private:
    struct BatchRecord
    {
        double sample = 0.0;
        double id_map = 0.0;
        double io = 0.0;
        /** Part of io hidden behind compute (FastGL topology prefetch). */
        double io_overlapped = 0.0;
        double compute = 0.0;
        int64_t loaded = 0;
        int64_t reused = 0;
        int64_t cache_hits = 0;
        uint64_t bytes = 0;
        int64_t instances = 0;
        int64_t uniques = 0;
    };

    /** One epoch's work assignment. */
    struct EpochPlan
    {
        int64_t num_batches = 0;
        /** Batches per Reorder window (>= 1). */
        int64_t window = 1;
        /** Round-robin batch indices per trainer GPU. */
        std::vector<std::vector<int64_t>> per_gpu;
    };

    /**
     * Per-thread sampler for concurrent producers. Instances are not
     * shareable across threads, but any instance yields identical
     * output for the same (epoch, index): batch @p index of epoch
     * @p epoch draws from its own derived RNG stream, not in
     * shared-generator order, so the result is independent of sampling
     * order and thread placement.
     */
    struct ThreadSampler
    {
        explicit ThreadSampler(const Pipeline &pipe);

        sample::SampledSubgraph sample(const Pipeline &pipe,
                                       int64_t epoch, int64_t index);

        std::unique_ptr<sample::NeighborSampler> khop;
        std::unique_ptr<sample::RandomWalkSampler> walk;
    };

    /** Shuffle, advance the epoch counter, assign batches to GPUs. */
    EpochPlan plan_epoch();

    /** RNG stream seed of batch @p index in epoch @p epoch. */
    uint64_t batch_seed(int64_t epoch, int64_t index) const;

    /** Reorder decision for one window against the resident batch. */
    std::vector<size_t> window_order(
        const match::Matcher &matcher,
        const std::vector<sample::SampledSubgraph> &subgraphs) const;

    /**
     * Sample/id-map/io accounting for one batch — everything except the
     * compute phase. Mutates only @p matcher (caller-owned, per GPU) and
     * the cache's atomic statistics; safe to run concurrently across
     * GPUs.
     */
    BatchRecord plan_transfer(const sample::SampledSubgraph &sg,
                              match::Matcher &matcher) const;

    /** Modelled compute seconds of one batch (pure). */
    double compute_time(const sample::SampledSubgraph &sg) const;

    /** Feed the epoch's per-batch phases to executor.profiler. */
    void profile_epoch(
        const std::vector<std::vector<BatchRecord>> &records) const;

    /** Aggregate per-GPU records into the epoch result (work + wall). */
    EpochResult finalize_epoch(
        const std::vector<std::vector<BatchRecord>> &records,
        int64_t num_batches);

    void build_cache();

    /**
     * Shared worker pool for the O(n²) Reorder set algebra, created
     * lazily the first time a window is big enough to benefit (small
     * windows stay sequential — the fork/join overhead would dominate).
     * Thread safe: gather threads call window_order concurrently, and both the lazy construction
     * (call_once) and ThreadPool::submit are safe under contention. The
     * row-sharded matrix is bit-identical for any worker count, so the
     * pool never changes results.
     */
    util::ThreadPool *reorder_pool(size_t num_sets) const;

    const graph::Dataset &dataset_;
    PipelineOptions opts_;
    sim::GpuSpec spec_;
    sim::KernelModel kernels_;
    compute::ComputeCostModel cost_model_;
    sample::BatchSplitter splitter_;
    std::optional<match::StaticFeatureCache> cache_;
    int64_t cache_rows_ = 0;
    int trainers_ = 1;
    int samplers_ = 0;
    uint64_t param_bytes_ = 0;
    int epoch_ = 0;
    std::vector<BatchStageTimes> last_stages_;
    /** Stop flag + close-queues action of the in-flight epoch. */
    util::StageShutdown shutdown_;
    EpochHostStats stats_;
    mutable std::once_flag match_pool_once_;
    mutable std::unique_ptr<util::ThreadPool> match_pool_;
};

/** Analytic parameter byte count for @p config (no model instantiation). */
uint64_t model_param_bytes(const compute::ModelConfig &config);

} // namespace core
} // namespace fastgl
