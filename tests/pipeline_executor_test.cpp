/**
 * @file
 * Tests of Pipeline's overlapped epoch executor: modelled results equal
 * to the goldens of the single-threaded loop it replaced, at every
 * thread width and preset; backpressure under a slow consumer;
 * exception propagation from every stage; and clean shutdown
 * mid-epoch. The suite keeps the `AsyncPipeline` name under which these
 * tests were first written against a separate executor class.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "core/pipeline.h"
#include "epoch_digest.h"
#include "graph/datasets.h"
#include "prof/profiler.h"

namespace fastgl {
namespace {

using reference::next_epoch_digest;

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

/** Goldens of the first two epochs of one configuration. */
struct Golden
{
    uint64_t epoch1 = 0;
    uint64_t epoch2 = 0;
};

// Captured from the single-threaded loop with base_options().
constexpr Golden kPyG{0x114C596E8E593C0EULL, 0xE53555A936817719ULL};
constexpr Golden kDgl{0xA7A7F042E18EF85FULL, 0x08A968047A0B1FCEULL};
/** GNNLab on 3 GPUs: one dedicated sampler GPU, two trainers. */
constexpr Golden kGnnLab{0xDAC6511F452ACCE2ULL, 0x0CCD29835FF2F1A0ULL};
/** GNNLab on 2 GPUs with a 20% static cache. */
constexpr Golden kGnnLabCache{0x35085CDED6B94BFDULL,
                              0xA13D4C1201CCD2C2ULL};
constexpr Golden kFastGl{0xD16EA54054243F0CULL, 0xEA3118EE9C35A3EBULL};
/** FastGL with a 20% static cache on top of Match. */
constexpr Golden kFastGlCache{0x252AAFC83A163E0CULL,
                              0x1DA584E03DE2C7B6ULL};
constexpr Golden kFastGlWalk{0xFF90B08C21D5A1E4ULL,
                             0xA78E119436F37094ULL};
constexpr Golden kTwoMachines{0xCD7BAAA4F0AE9FCAULL,
                              0xB3F6C62C0A4215FAULL};
/** One GPU, 16 batches in windows of 2. */
constexpr Golden kOneGpuWindow2{0x673F74929381E55CULL,
                                0x702AB4D2ED384B49ULL};

/** Two epochs of @p opts at (sampler, gather, compute) widths match
 *  @p want. */
void
expect_golden(core::PipelineOptions opts, const Golden &want)
{
    for (const auto &[samplers, gatherers, computers] :
         {std::tuple{1, 1, 1}, std::tuple{2, 2, 1}, std::tuple{4, 4, 2}}) {
        opts.executor.sampler_threads = samplers;
        opts.executor.gather_threads = gatherers;
        opts.executor.compute_threads = computers;
        core::Pipeline pipe(products(), opts);
        EXPECT_EQ(next_epoch_digest(pipe), want.epoch1)
            << "widths " << samplers << gatherers << computers;
        EXPECT_EQ(next_epoch_digest(pipe), want.epoch2)
            << "widths " << samplers << gatherers << computers;
    }
}

TEST(PipelineGolden, PyG)
{
    expect_golden(base_options(core::Framework::kPyG), kPyG);
}

TEST(PipelineGolden, Dgl)
{
    expect_golden(base_options(core::Framework::kDgl), kDgl);
}

TEST(PipelineGolden, GnnLabPipelinedSampling)
{
    auto opts = base_options(core::Framework::kGnnLab);
    opts.num_gpus = 3;
    expect_golden(opts, kGnnLab);
}

TEST(PipelineGolden, FastGl)
{
    expect_golden(base_options(core::Framework::kFastGL), kFastGl);
}

TEST(PipelineGolden, FastGlStaticCache)
{
    auto opts = base_options(core::Framework::kFastGL);
    opts.cache_ratio = 0.2;
    expect_golden(opts, kFastGlCache);
}

TEST(PipelineGolden, FastGlRandomWalk)
{
    auto opts = base_options(core::Framework::kFastGL);
    opts.use_random_walk = true;
    expect_golden(opts, kFastGlWalk);
}

TEST(PipelineGolden, TwoMachines)
{
    auto opts = base_options(core::Framework::kFastGL);
    opts.num_machines = 2;
    expect_golden(opts, kTwoMachines);
}

TEST(AsyncPipeline, BitIdenticalToSequentialFastGl)
{
    // Two epochs: the epoch counter and shuffle stream must advance
    // exactly as the single-threaded loop's did across calls.
    auto opts = base_options(core::Framework::kFastGL);
    opts.executor.sampler_threads = 2;
    core::Pipeline pipe(products(), opts);
    EXPECT_EQ(next_epoch_digest(pipe), kFastGl.epoch1);
    EXPECT_EQ(next_epoch_digest(pipe), kFastGl.epoch2);
}

TEST(AsyncPipeline, BitIdenticalAcrossSamplerThreadCounts)
{
    for (int threads : {1, 2, 4, 8}) {
        auto opts = base_options(core::Framework::kFastGL);
        opts.executor.sampler_threads = threads;
        core::Pipeline pipe(products(), opts);
        EXPECT_EQ(next_epoch_digest(pipe), kFastGl.epoch1)
            << "threads=" << threads;
    }
}

TEST(AsyncPipeline, BitIdenticalAcrossGatherAndComputeThreads)
{
    for (int gather : {1, 3}) {
        for (int compute : {1, 2}) {
            auto opts = base_options(core::Framework::kFastGL);
            opts.executor.sampler_threads = 4;
            opts.executor.gather_threads = gather;
            opts.executor.compute_threads = compute;
            core::Pipeline pipe(products(), opts);
            EXPECT_EQ(next_epoch_digest(pipe), kFastGl.epoch1)
                << "gather=" << gather << " compute=" << compute;
        }
    }
}

TEST(AsyncPipeline, ProfileSamplerStageHoldsSampleAndIdMap)
{
    // The one stage mapping: sampler = sample + id_map, whatever the
    // thread counts, and the whole report is width-independent.
    std::vector<uint64_t> fingerprints;
    for (int threads : {1, 4}) {
        prof::Profiler profiler(true);
        auto opts = base_options(core::Framework::kFastGL);
        opts.executor.sampler_threads = threads;
        opts.executor.gather_threads = threads;
        opts.executor.compute_threads = threads;
        opts.executor.profiler = &profiler;
        core::Pipeline pipe(products(), opts);
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
    opts.executor.sampler_threads = 3;
    opts.executor.gather_threads = 2;
    core::Pipeline pipe(products(), opts);
    EXPECT_EQ(next_epoch_digest(pipe), kGnnLabCache.epoch1);
    EXPECT_EQ(next_epoch_digest(pipe), kGnnLabCache.epoch2);
}

TEST(AsyncPipeline, BitIdenticalWithRandomWalkSampler)
{
    auto opts = base_options(core::Framework::kFastGL);
    opts.use_random_walk = true;
    opts.executor.sampler_threads = 4;
    core::Pipeline pipe(products(), opts);
    EXPECT_EQ(next_epoch_digest(pipe), kFastGlWalk.epoch1);
}

TEST(AsyncPipeline, BackpressureThrottlesProducersUnderSlowConsumer)
{
    auto opts = base_options(core::Framework::kFastGL);
    opts.max_batches = 16;
    opts.reorder_window = 2; // 8 windows -> plenty of hand-overs

    core::ExecutorOptions &exec = opts.executor;
    exec.sampler_threads = 4;
    exec.gather_threads = 1;
    exec.queue_depth = 2;
    // Gate the first gathered window on the producers having sampled
    // more windows than the queue can hold (7 of 8, i.e. 14 batches:
    // one consumed + two queued + four in producer hands), so at least
    // one producer provably blocks in push() regardless of how slow
    // this host or a sanitizer build is.
    std::atomic<int> sampled{0};
    exec.sample_hook = [&sampled](int64_t) { sampled.fetch_add(1); };
    std::atomic<bool> gated{false};
    exec.gather_hook = [&](int) {
        if (gated.exchange(true))
            return;
        while (sampled.load() < 14)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        // Let the last samplers actually enter their blocking push.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    };
    core::Pipeline pipe(products(), opts);
    const auto result = pipe.run_epoch();
    EXPECT_EQ(result.batches, 16);

    const core::EpochHostStats &stats = pipe.last_stats();
    // The queue never exceeded its bound...
    EXPECT_LE(stats.batch_queue.max_depth, exec.queue_depth);
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
    // still matches its golden.
    auto opts = base_options(core::Framework::kFastGL);
    opts.num_gpus = 1;
    opts.max_batches = 16;
    opts.reorder_window = 2; // 8 windows, all on the single GPU

    core::ExecutorOptions &exec = opts.executor;
    exec.sampler_threads = 2;
    exec.gather_threads = 1;
    exec.compute_threads = 1;
    exec.queue_depth = 1;
    std::atomic<int> sampled{0};
    std::atomic<bool> stalled{false};
    exec.sample_hook = [&](int64_t) {
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
    core::Pipeline pipe(products(), opts);
    EXPECT_EQ(next_epoch_digest(pipe), kOneGpuWindow2.epoch1);
    EXPECT_EQ(pipe.last_stats().batches_completed, 16);
    // The hook stalls only once; the next epoch runs unhindered.
    EXPECT_EQ(next_epoch_digest(pipe), kOneGpuWindow2.epoch2);
}

TEST(AsyncPipeline, SampleStageExceptionPropagatesToCaller)
{
    auto opts = base_options(core::Framework::kFastGL);
    core::ExecutorOptions &exec = opts.executor;
    exec.sampler_threads = 3;
    exec.sample_hook = [](int64_t index) {
        if (index == 5)
            throw std::runtime_error("sampler stage died");
    };
    core::Pipeline pipe(products(), opts);
    EXPECT_THROW(pipe.run_epoch(), std::runtime_error);
}

TEST(AsyncPipeline, GatherStageExceptionPropagatesToCaller)
{
    auto opts = base_options(core::Framework::kFastGL);
    core::ExecutorOptions &exec = opts.executor;
    exec.sampler_threads = 2;
    std::atomic<int> windows{0};
    exec.gather_hook = [&windows](int) {
        if (windows.fetch_add(1) == 1)
            throw std::runtime_error("gather stage died");
    };
    core::Pipeline pipe(products(), opts);
    EXPECT_THROW(pipe.run_epoch(), std::runtime_error);
}

TEST(AsyncPipeline, ComputeStageExceptionPropagatesToCaller)
{
    auto opts = base_options(core::Framework::kFastGL);
    core::ExecutorOptions &exec = opts.executor;
    exec.sampler_threads = 2;
    exec.compute_threads = 2;
    std::atomic<int> batches{0};
    exec.compute_hook = [&batches](int64_t) {
        if (batches.fetch_add(1) == 3)
            throw std::runtime_error("compute stage died");
    };
    core::Pipeline pipe(products(), opts);
    EXPECT_THROW(pipe.run_epoch(), std::runtime_error);
}

TEST(AsyncPipeline, CleanShutdownMidEpoch)
{
    auto opts = base_options(core::Framework::kFastGL);
    opts.max_batches = 16;
    opts.reorder_window = 2;

    core::Pipeline *handle = nullptr;
    std::atomic<int> computed{0};
    opts.executor.sampler_threads = 2;
    opts.executor.compute_hook = [&](int64_t) {
        if (computed.fetch_add(1) == 2)
            handle->request_stop();
    };
    core::Pipeline pipe(products(), opts);
    handle = &pipe;

    const auto result = pipe.run_epoch(); // must return, not hang
    const core::EpochHostStats &stats = pipe.last_stats();
    EXPECT_TRUE(stats.stopped_early);
    EXPECT_TRUE(pipe.stop_requested());
    EXPECT_LT(stats.batches_completed, 16);
    // result.batches still reports the planned epoch size; the stats
    // carry the completed count.
    EXPECT_EQ(result.batches, 16);
}

TEST(AsyncPipeline, EpochAfterStopRunsCleanAndStaysDeterministic)
{
    // Epoch 1 is cut short, epoch 2 runs to completion.
    auto opts = base_options(core::Framework::kFastGL);
    core::Pipeline *handle = nullptr;
    std::atomic<bool> first_epoch{true};
    opts.executor.sampler_threads = 2;
    opts.executor.compute_hook = [&](int64_t) {
        if (first_epoch.load())
            handle->request_stop();
    };
    core::Pipeline pipe(products(), opts);
    handle = &pipe;
    pipe.run_epoch(); // partial epoch 1
    EXPECT_TRUE(pipe.last_stats().stopped_early);
    first_epoch.store(false);

    // Epoch numbering and shuffle state advanced as for a full epoch,
    // so epoch 2 still matches its golden.
    EXPECT_EQ(next_epoch_digest(pipe), kFastGl.epoch2);
    EXPECT_FALSE(pipe.last_stats().stopped_early);
}

TEST(AsyncPipeline, StatsAccountOverlappedExecution)
{
    auto opts = base_options(core::Framework::kFastGL);
    opts.executor.sampler_threads = 2;
    core::Pipeline pipe(products(), opts);
    pipe.run_epoch();

    const core::EpochHostStats &stats = pipe.last_stats();
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
