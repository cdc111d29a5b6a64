/**
 * @file
 * The overlapped epoch executor: a genuinely multi-threaded version of
 * core::Pipeline in which sampler producer threads, a gather/cache stage,
 * and a compute stage run concurrently, connected by bounded MPMC queues
 * (util::BoundedQueue) — the paper's Reorder-window overlap (Fig. 5)
 * executed with real threads instead of being modelled.
 *
 * Two clocks coexist:
 *  - the *modelled* clock (EpochResult/PhaseBreakdown seconds from
 *    sim::KernelModel) is bit-identical to the sequential
 *    Pipeline for the same PipelineOptions seed, no matter how many
 *    threads run — every batch samples from its own derived RNG stream
 *    (util::derive_seed) and the per-GPU Match/Reorder chain is replayed
 *    in sequential order by a window sequencer;
 *  - the *measured* host wall-clock (AsyncEpochStats) shows the real
 *    overlap win: sampling of window w+1 proceeds while window w is
 *    being matched and its compute cost evaluated.
 */
#pragma once

#include <functional>

#include "core/pipeline.h"
#include "prof/profiler.h"
#include "util/bounded_queue.h"
#include "util/shutdown.h"

namespace fastgl {
namespace core {

/** Concurrency knobs (and test instrumentation) for AsyncPipeline. */
struct AsyncPipelineOptions
{
    /** Sampler producer threads (clamped to >= 1). */
    int sampler_threads = 2;
    /** Gather/cache consumer threads; 0 = min(trainer GPUs, 4). */
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
     * Gather real feature rows (match::GatherEngine, one per gather
     * thread) into arena-leased panels that are *moved* through the
     * compute queue — no feature copies between stages. The compute
     * drain folds every panel into AsyncEpochStats::gather_fingerprint
     * (FNV per batch, XOR across batches, so the combine is
     * order-independent and the fingerprint thread-count-invariant).
     * Off by default: the modelled clock does not need real bytes.
     */
    bool gather_features = false;
    /**
     * Optional per-stage recorder (caller-owned, may be null). The
     * epoch's per-batch modelled phases are fed into it *after* the
     * join, replayed from the per-position record array in (gpu,
     * position) order — never from the concurrent drains, whose
     * completion order varies with thread count. Feeding is therefore
     * bit-identical at any thread count, and the modelled EpochResult
     * is untouched (observation only). Successive epochs accumulate
     * unless the caller resets the profiler between them.
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

/** Measured (host) execution statistics of one overlapped epoch. */
struct AsyncEpochStats
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
    /**
     * XOR of per-batch FNV(batch_id, panel bytes) words when
     * AsyncPipelineOptions::gather_features is on (0 when off or when
     * the epoch completed zero batches). Thread-count invariant: each
     * batch's word depends only on its id and bytes, and XOR commutes.
     */
    uint64_t gather_fingerprint = 0;
    /** Feature rows / bytes gathered into panels this epoch. */
    int64_t gather_rows = 0;
    uint64_t gather_bytes = 0;
};

/**
 * Stage-overlapped executor over the same modelled pipeline as
 * core::Pipeline.
 *
 * Stage graph (arrows are BoundedQueues):
 *
 *   sampler threads ──windows──> gather/sequencer ──batches──> compute
 *   (per-thread sampler,          (per-GPU in-order:            (cost
 *    per-batch RNG stream)         Reorder + Match + cache)      model)
 *
 * Exceptions thrown in any stage fail both queues, wind every thread
 * down, and rethrow from run_epoch(). request_stop() closes the queues
 * for a clean mid-epoch shutdown; run_epoch() then returns the partial
 * result and last_stats().stopped_early is set.
 */
class AsyncPipeline
{
  public:
    AsyncPipeline(const graph::Dataset &dataset, PipelineOptions opts,
                  AsyncPipelineOptions async = {},
                  sim::GpuSpec spec = sim::rtx3090());

    /**
     * Run one modelled epoch with overlapped stages. Bit-identical
     * EpochResult to Pipeline::run_epoch() on the n-th call with the
     * same construction options (unless stopped early).
     */
    EpochResult run_epoch();

    /**
     * Ask a running epoch to shut down cleanly: queues are closed,
     * stages finish their current item and exit, run_epoch() returns
     * the partial result. Safe to call from any thread; idempotent.
     */
    void request_stop();

    /** True once request_stop() was called for the current epoch. */
    bool stop_requested() const { return shutdown_.stop_requested(); }

    /** Measured host-side statistics of the most recent epoch. */
    const AsyncEpochStats &last_stats() const { return stats_; }

    /** The underlying modelled pipeline (shared configuration). */
    const Pipeline &modelled() const { return pipeline_; }

    const PipelineOptions &options() const { return pipeline_.options(); }

    // Resolved concurrency (after clamping/defaulting).
    int sampler_threads() const { return sampler_threads_; }
    int gather_threads() const { return gather_threads_; }
    int compute_threads() const { return compute_threads_; }

  private:
    Pipeline pipeline_;
    AsyncPipelineOptions async_;
    int sampler_threads_ = 1;
    int gather_threads_ = 1;
    int compute_threads_ = 1;
    /** Stop flag + close-queues action of the in-flight epoch. */
    util::StageShutdown shutdown_;
    AsyncEpochStats stats_;
};

} // namespace core
} // namespace fastgl
