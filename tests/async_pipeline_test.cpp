/**
 * @file
 * Concurrency tests for core::AsyncPipeline: bit-identical modelled
 * results versus the sequential Pipeline across thread counts and
 * presets, backpressure under a slow consumer, exception propagation
 * from every stage, and clean shutdown mid-epoch.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/async_pipeline.h"
#include "core/pipeline.h"
#include "graph/datasets.h"
#include "prof/profiler.h"

namespace fastgl {
namespace {

const graph::Dataset &
products()
{
    static graph::Dataset ds = [] {
        graph::ReplicaOptions opts;
        opts.size_factor = 0.15;
        opts.materialize_features = false;
        return graph::load_replica(graph::DatasetId::kProducts, opts);
    }();
    return ds;
}

core::PipelineOptions
base_options(core::Framework fw)
{
    core::PipelineOptions opts;
    opts.fw = core::framework_preset(fw);
    opts.num_gpus = 2;
    opts.max_batches = 12;
    opts.reorder_window = 4; // several windows per GPU per epoch
    opts.seed = 7;
    return opts;
}

/** Exact (bit-level) equality of two epoch results. */
void
expect_identical(const core::EpochResult &a, const core::EpochResult &b)
{
    EXPECT_EQ(a.phases.sample, b.phases.sample);
    EXPECT_EQ(a.phases.id_map, b.phases.id_map);
    EXPECT_EQ(a.phases.io, b.phases.io);
    EXPECT_EQ(a.phases.compute, b.phases.compute);
    EXPECT_EQ(a.phases.allreduce, b.phases.allreduce);
    EXPECT_EQ(a.epoch_seconds, b.epoch_seconds);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.nodes_loaded, b.nodes_loaded);
    EXPECT_EQ(a.nodes_reused, b.nodes_reused);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.bytes_loaded, b.bytes_loaded);
    EXPECT_EQ(a.sampled_instances, b.sampled_instances);
    EXPECT_EQ(a.unique_nodes, b.unique_nodes);
}

TEST(AsyncPipeline, BitIdenticalToSequentialFastGl)
{
    const auto opts = base_options(core::Framework::kFastGL);
    core::Pipeline seq(products(), opts);

    core::AsyncPipelineOptions async;
    async.sampler_threads = 2;
    core::AsyncPipeline overlapped(products(), opts, async);

    // Two epochs: the epoch counter and shuffle stream must stay in
    // lockstep with the sequential executor across calls.
    for (int epoch = 0; epoch < 2; ++epoch) {
        const auto rs = seq.run_epoch();
        const auto ra = overlapped.run_epoch();
        expect_identical(rs, ra);
    }
}

TEST(AsyncPipeline, BitIdenticalAcrossSamplerThreadCounts)
{
    const auto opts = base_options(core::Framework::kFastGL);
    core::Pipeline seq(products(), opts);
    const auto reference = seq.run_epoch();

    for (int threads : {1, 2, 4, 8}) {
        core::AsyncPipelineOptions async;
        async.sampler_threads = threads;
        core::AsyncPipeline pipe(products(), opts, async);
        expect_identical(reference, pipe.run_epoch());
    }
}

TEST(AsyncPipeline, BitIdenticalAcrossGatherAndComputeThreads)
{
    const auto opts = base_options(core::Framework::kFastGL);
    core::Pipeline seq(products(), opts);
    const auto reference = seq.run_epoch();

    for (int gather : {1, 3}) {
        for (int compute : {1, 2}) {
            core::AsyncPipelineOptions async;
            async.sampler_threads = 4;
            async.gather_threads = gather;
            async.compute_threads = compute;
            core::AsyncPipeline pipe(products(), opts, async);
            expect_identical(reference, pipe.run_epoch());
        }
    }
}

TEST(AsyncPipeline, ProfileSamplerStageHoldsSampleAndIdMap)
{
    // The one stage mapping: sampler = sample + id_map, whatever the
    // thread counts, and the whole report is width-independent.
    const auto opts = base_options(core::Framework::kFastGL);
    std::vector<uint64_t> fingerprints;
    for (int threads : {1, 4}) {
        prof::Profiler profiler(true);
        core::AsyncPipelineOptions async;
        async.sampler_threads = threads;
        async.gather_threads = threads;
        async.compute_threads = threads;
        async.profiler = &profiler;
        core::AsyncPipeline pipe(products(), opts, async);
        const core::EpochResult r = pipe.run_epoch();
        const double want = r.phases.sample + r.phases.id_map;
        EXPECT_NEAR(profiler.stage(prof::Stage::kSampler).busy_seconds,
                    want, 1e-12 * want)
            << "threads=" << threads;
        fingerprints.push_back(profiler.report().fingerprint());
    }
    EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

TEST(AsyncPipeline, BitIdenticalWithStaticCachePreset)
{
    // GNNLab preset: exercises the shared (atomic-stats) feature cache
    // on the concurrent gather path.
    auto opts = base_options(core::Framework::kGnnLab);
    opts.cache_ratio = 0.2;
    core::Pipeline seq(products(), opts);

    core::AsyncPipelineOptions async;
    async.sampler_threads = 3;
    async.gather_threads = 2;
    core::AsyncPipeline pipe(products(), opts, async);
    expect_identical(seq.run_epoch(), pipe.run_epoch());
}

TEST(AsyncPipeline, BitIdenticalWithRandomWalkSampler)
{
    auto opts = base_options(core::Framework::kFastGL);
    opts.use_random_walk = true;
    core::Pipeline seq(products(), opts);

    core::AsyncPipelineOptions async;
    async.sampler_threads = 4;
    core::AsyncPipeline pipe(products(), opts, async);
    expect_identical(seq.run_epoch(), pipe.run_epoch());
}

TEST(AsyncPipeline, BackpressureThrottlesProducersUnderSlowConsumer)
{
    auto opts = base_options(core::Framework::kFastGL);
    opts.max_batches = 16;
    opts.reorder_window = 2; // 8 windows -> plenty of hand-overs

    core::AsyncPipelineOptions async;
    async.sampler_threads = 4;
    async.gather_threads = 1;
    async.queue_depth = 2;
    // Gate the first gathered window on the producers having sampled
    // more windows than the queue can hold (7 of 8, i.e. 14 batches:
    // one consumed + two queued + four in producer hands), so at least
    // one producer provably blocks in push() regardless of how slow
    // this host or a sanitizer build is.
    std::atomic<int> sampled{0};
    async.sample_hook = [&sampled](int64_t) { sampled.fetch_add(1); };
    std::atomic<bool> gated{false};
    async.gather_hook = [&](int) {
        if (gated.exchange(true))
            return;
        while (sampled.load() < 14)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        // Let the last samplers actually enter their blocking push.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    };
    core::AsyncPipeline pipe(products(), opts, async);
    const auto result = pipe.run_epoch();
    EXPECT_EQ(result.batches, 16);

    const core::AsyncEpochStats &stats = pipe.last_stats();
    // The queue never exceeded its bound...
    EXPECT_LE(stats.batch_queue.max_depth, async.queue_depth);
    // ...and fast producers really had to wait for the slow consumer.
    EXPECT_GT(stats.batch_queue.push_blocked, 0u);
    EXPECT_EQ(stats.batches_completed, 16);
    EXPECT_FALSE(stats.stopped_early);
}

TEST(AsyncPipeline, ReassemblyRingGrowsWhenOneWindowLagsFarBehind)
{
    // Regression: the reassembly ring's seed capacity (queue_depth +
    // producers + gatherers + 1 = 5 here) counts only windows held in
    // producers, the queue, and gather threads — not windows already
    // parked in the ring. Stall one producer on its first window while
    // the other samples the remaining seven: the gather thread parks
    // windows up to sequence 7 with next_window still at 0 or 1, far
    // past the seed capacity, which used to trip a FASTGL_CHECK panic
    // and must now grow the ring instead. The epoch still finishes and
    // stays bit-identical to the sequential executor.
    auto opts = base_options(core::Framework::kFastGL);
    opts.num_gpus = 1;
    opts.max_batches = 16;
    opts.reorder_window = 2; // 8 windows, all on the single GPU

    core::Pipeline seq(products(), opts);
    const auto reference = seq.run_epoch();

    core::AsyncPipelineOptions async;
    async.sampler_threads = 2;
    async.gather_threads = 1;
    async.compute_threads = 1;
    async.queue_depth = 1;
    std::atomic<int> sampled{0};
    std::atomic<bool> stalled{false};
    async.sample_hook = [&](int64_t) {
        if (stalled.exchange(true)) {
            sampled.fetch_add(1);
            return;
        }
        // The first producer to arrive holds its window hostage until
        // the other has sampled all 14 remaining batches; the grace
        // period then lets the gather thread park those windows.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (sampled.load() < 14 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    };
    core::AsyncPipeline pipe(products(), opts, async);
    expect_identical(reference, pipe.run_epoch());
    EXPECT_EQ(pipe.last_stats().batches_completed, 16);
}

TEST(AsyncPipeline, SampleStageExceptionPropagatesToCaller)
{
    auto opts = base_options(core::Framework::kFastGL);
    core::AsyncPipelineOptions async;
    async.sampler_threads = 3;
    async.sample_hook = [](int64_t index) {
        if (index == 5)
            throw std::runtime_error("sampler stage died");
    };
    core::AsyncPipeline pipe(products(), opts, async);
    EXPECT_THROW(pipe.run_epoch(), std::runtime_error);
}

TEST(AsyncPipeline, GatherStageExceptionPropagatesToCaller)
{
    auto opts = base_options(core::Framework::kFastGL);
    core::AsyncPipelineOptions async;
    async.sampler_threads = 2;
    std::atomic<int> windows{0};
    async.gather_hook = [&windows](int) {
        if (windows.fetch_add(1) == 1)
            throw std::runtime_error("gather stage died");
    };
    core::AsyncPipeline pipe(products(), opts, async);
    EXPECT_THROW(pipe.run_epoch(), std::runtime_error);
}

TEST(AsyncPipeline, ComputeStageExceptionPropagatesToCaller)
{
    auto opts = base_options(core::Framework::kFastGL);
    core::AsyncPipelineOptions async;
    async.sampler_threads = 2;
    async.compute_threads = 2;
    std::atomic<int> batches{0};
    async.compute_hook = [&batches](int64_t) {
        if (batches.fetch_add(1) == 3)
            throw std::runtime_error("compute stage died");
    };
    core::AsyncPipeline pipe(products(), opts, async);
    EXPECT_THROW(pipe.run_epoch(), std::runtime_error);
}

TEST(AsyncPipeline, CleanShutdownMidEpoch)
{
    auto opts = base_options(core::Framework::kFastGL);
    opts.max_batches = 16;
    opts.reorder_window = 2;

    core::AsyncPipelineOptions async;
    async.sampler_threads = 2;
    core::AsyncPipeline *handle = nullptr;
    std::atomic<int> computed{0};
    async.compute_hook = [&](int64_t) {
        if (computed.fetch_add(1) == 2)
            handle->request_stop();
    };
    core::AsyncPipeline pipe(products(), opts, async);
    handle = &pipe;

    const auto result = pipe.run_epoch(); // must return, not hang
    const core::AsyncEpochStats &stats = pipe.last_stats();
    EXPECT_TRUE(stats.stopped_early);
    EXPECT_TRUE(pipe.stop_requested());
    EXPECT_LT(stats.batches_completed, 16);
    // result.batches still reports the planned epoch size; the stats
    // carry the completed count.
    EXPECT_EQ(result.batches, 16);
}

TEST(AsyncPipeline, EpochAfterStopRunsCleanAndStaysDeterministic)
{
    const auto opts = base_options(core::Framework::kFastGL);

    // Sequential twin runs two full epochs.
    core::Pipeline seq(products(), opts);
    seq.run_epoch();
    const auto reference = seq.run_epoch();

    // Async twin: epoch 1 is cut short, epoch 2 runs to completion.
    core::AsyncPipelineOptions async;
    async.sampler_threads = 2;
    core::AsyncPipeline *handle = nullptr;
    std::atomic<bool> first_epoch{true};
    async.compute_hook = [&](int64_t) {
        if (first_epoch.load())
            handle->request_stop();
    };
    core::AsyncPipeline pipe(products(), opts, async);
    handle = &pipe;
    pipe.run_epoch(); // partial epoch 1
    EXPECT_TRUE(pipe.last_stats().stopped_early);
    first_epoch.store(false);

    // Epoch numbering and shuffle state stayed in lockstep, so epoch 2
    // is still bit-identical to the sequential executor's epoch 2.
    expect_identical(reference, pipe.run_epoch());
    EXPECT_FALSE(pipe.last_stats().stopped_early);
}

TEST(AsyncPipeline, StatsAccountOverlappedExecution)
{
    const auto opts = base_options(core::Framework::kFastGL);
    core::AsyncPipelineOptions async;
    async.sampler_threads = 2;
    core::AsyncPipeline pipe(products(), opts, async);
    pipe.run_epoch();

    const core::AsyncEpochStats &stats = pipe.last_stats();
    EXPECT_GT(stats.wall_seconds, 0.0);
    EXPECT_GT(stats.sample_busy_seconds, 0.0);
    EXPECT_GT(stats.gather_busy_seconds, 0.0);
    EXPECT_GT(stats.compute_busy_seconds, 0.0);
    EXPECT_EQ(stats.batches_completed, 12);
    // 12 batches over 2 GPUs in windows of 4 -> 2 windows per GPU.
    EXPECT_EQ(stats.windows_produced, 4);
    EXPECT_EQ(stats.batch_queue.pushed, 4u);
    EXPECT_EQ(stats.compute_queue.pushed, 12u);
}

} // namespace
} // namespace fastgl
