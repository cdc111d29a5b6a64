/**
 * @file
 * Determinism guarantees of the epoch executor: the same
 * PipelineOptions seed must produce bit-identical EpochResult /
 * PhaseBreakdown numbers across runs and across thread widths, equal
 * to the goldens of the single-threaded loop the overlapped executor
 * replaced.
 */
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "epoch_digest.h"
#include "graph/datasets.h"

namespace fastgl {
namespace {

using reference::next_epoch_digest;

// Goldens of options_with_seed(), epochs 1 and 2, captured from the
// single-threaded loop.
constexpr uint64_t kSeed2024[] = {0x08E67570877827E1ULL,
                                  0xEEAC2B1A1D288ACDULL};
constexpr uint64_t kSeed99Epoch1 = 0x5BC196A54C557B77ULL;

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
options_with_seed(uint64_t seed)
{
    core::PipelineOptions opts;
    opts.fw = core::framework_preset(core::Framework::kFastGL);
    opts.num_gpus = 2;
    opts.max_batches = 12;
    opts.reorder_window = 4;
    opts.seed = seed;
    return opts;
}

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

/** Two pipelines at one width agree with each other and the golden. */
void
expect_runs_agree(int sampler_threads)
{
    auto opts = options_with_seed(2024);
    opts.executor.sampler_threads = sampler_threads;
    opts.executor.gather_threads = sampler_threads;
    core::Pipeline a(products(), opts);
    core::Pipeline b(products(), opts);
    for (uint64_t want : kSeed2024) {
        EXPECT_EQ(next_epoch_digest(a), want);
        EXPECT_EQ(next_epoch_digest(b), want);
    }
}

TEST(Determinism, SequentialSameSeedSameNumbersAcrossRuns)
{
    expect_runs_agree(1); // one thread per stage
}

TEST(Determinism, AsyncSameSeedSameNumbersAcrossRuns)
{
    expect_runs_agree(4);
}

TEST(Determinism, AsyncMatchesSequentialAcrossThreadCounts)
{
    for (int threads : {1, 2, 8}) {
        auto opts = options_with_seed(99);
        opts.executor.sampler_threads = threads;
        core::Pipeline pipe(products(), opts);
        EXPECT_EQ(next_epoch_digest(pipe), kSeed99Epoch1)
            << "threads=" << threads;
    }
}

TEST(Determinism, BatchSamplingIsOrderIndependent)
{
    // Direct check of the per-batch seed derivation: sampling the same
    // batch through two independent sampler instances (as two producer
    // threads would) yields the same subgraph, regardless of what else
    // each instance sampled before.
    sample::NeighborSamplerOptions nopts;
    nopts.fanouts = {4, 4};
    sample::NeighborSampler first(products().graph, nopts);
    sample::NeighborSampler second(products().graph, nopts);

    std::vector<graph::NodeId> seeds_a = {1, 2, 3, 4};
    std::vector<graph::NodeId> seeds_b = {9, 10, 11};

    // Warp the second sampler's history before the comparison draw.
    (void)second.sample(seeds_b, 777);

    const auto sg_a = first.sample(seeds_a, 1234);
    const auto sg_b = second.sample(seeds_a, 1234);
    EXPECT_EQ(sg_a.nodes, sg_b.nodes);
    EXPECT_EQ(sg_a.instances, sg_b.instances);
    EXPECT_EQ(sg_a.edges_examined, sg_b.edges_examined);
    ASSERT_EQ(sg_a.blocks.size(), sg_b.blocks.size());
    for (size_t h = 0; h < sg_a.blocks.size(); ++h) {
        EXPECT_EQ(sg_a.blocks[h].indptr, sg_b.blocks[h].indptr);
        EXPECT_EQ(sg_a.blocks[h].sources, sg_b.blocks[h].sources);
    }
}

TEST(Determinism, DifferentSeedsProduceDifferentEpochs)
{
    core::Pipeline a(products(), options_with_seed(1));
    core::Pipeline b(products(), options_with_seed(2));
    // Not a correctness requirement per se, but if this fails the seed
    // plumbing is dead and the identity tests above prove nothing.
    EXPECT_NE(a.run_epoch().sampled_instances,
              b.run_epoch().sampled_instances);
}

TEST(Determinism, PhaseBreakdownStableAcrossEpochReplay)
{
    // Replaying a fresh pipeline after N epochs matches a twin that ran
    // the same N epochs: epoch indices, not shared-RNG call order,
    // drive the streams.
    const auto opts = options_with_seed(55);
    core::Pipeline a(products(), opts);
    core::Pipeline b(products(), opts);
    (void)a.run_epoch();
    (void)b.run_epoch();
    const auto ra = a.run_epoch();
    const auto rb = b.run_epoch();
    expect_identical(ra, rb);
    EXPECT_EQ(ra.phases.total(), rb.phases.total());
    EXPECT_EQ(ra.phases.sample_total(), rb.phases.sample_total());
}

} // namespace
} // namespace fastgl
