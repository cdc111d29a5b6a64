/**
 * @file
 * Tests for the hot-path performance layer: ArenaAllocator, Bitmap, the
 * adaptive merge/gallop/bitmap intersection kernels, the parallel
 * match-degree matrix, and bit-identity pins against the pre-overhaul
 * implementations (golden hashes captured from the previous revision).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generators.h"
#include "legacy_reference.h"
#include "match/match_degree.h"
#include "match/reorder.h"
#include "sample/layer_sampler.h"
#include "sample/neighbor_sampler.h"
#include "sample/random_walk_sampler.h"
#include "sample/subgraph_inducer.h"
#include "util/arena.h"
#include "util/bitmap.h"
#include "util/fingerprint.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fastgl {
namespace {

// ---------------------------------------------------------------- Arena

TEST(ArenaAllocator, AlignmentIsRespected)
{
    util::ArenaAllocator arena(256);
    for (size_t align : {1, 2, 4, 8, 16, 64}) {
        void *p = arena.allocate(3, align);
        EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u)
            << "align " << align;
    }
    // Mixed-type array allocations stay aligned too.
    arena.alloc_array<char>(1);
    double *d = arena.alloc_array<double>(4);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(d) % alignof(double), 0u);
}

TEST(ArenaAllocator, ResetReusesTheSameMemory)
{
    util::ArenaAllocator arena(1 << 12);
    void *first = arena.allocate(100);
    arena.reset();
    void *second = arena.allocate(100);
    EXPECT_EQ(first, second);
    EXPECT_EQ(arena.block_count(), 1u);
}

TEST(ArenaAllocator, WatermarkProtectsPersistentPrefix)
{
    util::ArenaAllocator arena(1 << 12);
    int32_t *persistent = arena.alloc_zeroed<int32_t>(64);
    persistent[7] = 1234;
    arena.set_watermark();

    int32_t *scratch1 = arena.alloc_array<int32_t>(64);
    arena.reset();
    int32_t *scratch2 = arena.alloc_array<int32_t>(64);
    EXPECT_EQ(scratch1, scratch2);      // scratch region rewound
    EXPECT_EQ(persistent[7], 1234);     // prefix untouched
    EXPECT_NE(static_cast<void *>(persistent),
              static_cast<void *>(scratch2));
}

TEST(ArenaAllocator, GrowsAcrossBlocksAndCoalescesOnReset)
{
    util::ArenaAllocator arena(128);
    // Spill far past the initial block: several new blocks appear.
    for (int i = 0; i < 8; ++i)
        arena.alloc_array<char>(200);
    EXPECT_GT(arena.block_count(), 2u);

    arena.reset();
    // Fragmented overflow was coalesced; the same total now fits in
    // the (initial + one overflow) blocks without further growth.
    const size_t blocks_after_reset = arena.block_count();
    EXPECT_LE(blocks_after_reset, 2u);
    for (int i = 0; i < 8; ++i)
        arena.alloc_array<char>(200);
    EXPECT_EQ(arena.block_count(), blocks_after_reset);
}

TEST(ArenaAllocator, OversizedRequestIsServedDirectly)
{
    util::ArenaAllocator arena(64);
    char *big = arena.alloc_array<char>(1 << 16);
    std::memset(big, 0xAB, 1 << 16);
    EXPECT_GE(arena.capacity(), size_t(1 << 16));
}

TEST(ArenaAllocator, ZeroedAllocationIsZero)
{
    util::ArenaAllocator arena(1 << 12);
    arena.allocate(37); // misalign the cursor
    int64_t *zeros = arena.alloc_zeroed<int64_t>(100);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(zeros[i], 0);
}

// ---------------------------------------------------------------- Bitmap

TEST(Bitmap, SetTestUnsetCount)
{
    util::Bitmap bm(200);
    EXPECT_EQ(bm.count(), 0);
    bm.set(0);
    bm.set(63);
    bm.set(64);
    bm.set(199);
    EXPECT_TRUE(bm.test(0));
    EXPECT_TRUE(bm.test(63));
    EXPECT_TRUE(bm.test(64));
    EXPECT_TRUE(bm.test(199));
    EXPECT_FALSE(bm.test(1));
    EXPECT_EQ(bm.count(), 4);
    bm.unset(63);
    EXPECT_FALSE(bm.test(63));
    EXPECT_EQ(bm.count(), 3);
    bm.clear();
    EXPECT_EQ(bm.count(), 0);
}

TEST(Bitmap, LoadProbeUnloadRoundTrip)
{
    util::Bitmap bm(1000);
    const std::vector<graph::NodeId> ids = {100, 150, 600, 999};
    bm.load<graph::NodeId>(ids, 0);
    EXPECT_EQ(bm.count(), 4);

    const std::vector<graph::NodeId> probe = {99, 100, 150, 151, 999};
    EXPECT_EQ(bm.probe_count_sorted<graph::NodeId>(probe, 0), 3);

    bm.unload<graph::NodeId>(ids, 0);
    EXPECT_EQ(bm.count(), 0);
}

TEST(Bitmap, BaseOffsetAndOutOfRangeIdsAreHandled)
{
    util::Bitmap bm(100);
    // IDs below base and past base+size must be ignored, not crash.
    const std::vector<graph::NodeId> ids = {400, 450, 549, 550, 9999};
    bm.load<graph::NodeId>(ids, graph::NodeId(450));
    EXPECT_EQ(bm.count(), 2); // 450 and 549 are in [450, 550)
    EXPECT_TRUE(bm.test(0));
    EXPECT_TRUE(bm.test(99));
    EXPECT_EQ(bm.probe_count_sorted<graph::NodeId>(ids,
                                                   graph::NodeId(450)),
              2);
}

TEST(Bitmap, IntersectCount)
{
    util::Bitmap a(256), b(512);
    for (size_t i = 0; i < 256; i += 2)
        a.set(i);
    for (size_t i = 0; i < 512; i += 3)
        b.set(i);
    // Multiples of 6 below 256: 0, 6, ..., 252.
    EXPECT_EQ(a.intersect_count(b), 43);
    EXPECT_EQ(b.intersect_count(a), 43);
}

// --------------------------------------------- adaptive intersections

std::vector<graph::NodeId>
random_sorted_set(util::Rng &rng, size_t size, uint64_t universe)
{
    std::vector<graph::NodeId> v;
    v.reserve(size);
    for (size_t i = 0; i < size; ++i)
        v.push_back(static_cast<graph::NodeId>(rng.next_below(universe)));
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
}

int64_t
reference_intersection(const std::vector<graph::NodeId> &a,
                       const std::vector<graph::NodeId> &b)
{
    std::vector<graph::NodeId> out;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(out));
    return static_cast<int64_t>(out.size());
}

TEST(Intersection, MergeGallopAndAdaptiveAgreeUnderFuzz)
{
    util::Rng rng(2024);
    const struct
    {
        size_t size_a, size_b;
        uint64_t universe;
    } cases[] = {
        {0, 100, 1000},      {1, 1, 10},         {50, 50, 200},
        {100, 100, 5000},    {10, 1000, 4000},   {3, 5000, 20000},
        {2000, 2000, 3000},  {500, 40, 10000},   {1, 10000, 10000},
        {257, 33000, 40000},
    };
    for (const auto &c : cases) {
        for (int rep = 0; rep < 8; ++rep) {
            const auto a = random_sorted_set(rng, c.size_a, c.universe);
            const auto b = random_sorted_set(rng, c.size_b, c.universe);
            const int64_t want = reference_intersection(a, b);
            EXPECT_EQ(match::detail::intersect_merge(a, b), want);
            const auto &small = a.size() <= b.size() ? a : b;
            const auto &large = a.size() <= b.size() ? b : a;
            EXPECT_EQ(match::detail::intersect_gallop(small, large),
                      want);
            EXPECT_EQ(match::intersect_sorted(a, b), want);
            EXPECT_EQ(match::intersect_sorted(b, a), want);
        }
    }
}

TEST(Intersection, DisjointRangesShortCircuit)
{
    const std::vector<graph::NodeId> lo = {1, 2, 3};
    const std::vector<graph::NodeId> hi = {10, 11};
    EXPECT_EQ(match::intersect_sorted(lo, hi), 0);
    EXPECT_EQ(match::intersect_sorted(hi, lo), 0);
}

TEST(Intersection, NodeSetUsesAdaptiveKernel)
{
    util::Rng rng(7);
    for (int rep = 0; rep < 16; ++rep) {
        const auto a = random_sorted_set(rng, 30, 3000);
        const auto b = random_sorted_set(rng, 2500, 3000);
        match::NodeSet sa(a), sb(b);
        EXPECT_EQ(sa.intersection_size(sb),
                  reference_intersection(a, b));
        EXPECT_EQ(sa.intersection_size(sb), sb.intersection_size(sa));
    }
}

/** The pre-radix NodeSet build: comparison sort, then dedup. */
std::vector<graph::NodeId>
sort_unique(std::vector<graph::NodeId> v)
{
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
}

TEST(NodeSetBuild, RadixSortEqualsSortUniqueUnderFuzz)
{
    util::Rng rng(4242);
    const graph::NodeId near_top = graph::NodeId{1} << 62;
    std::vector<std::vector<graph::NodeId>> lists = {
        {}, {0}, {-7}, {near_top}, {5, 5}, {3, 1, 2}};
    for (size_t size : {2, 3, 17, 255, 1000, 14000}) {
        // Duplicates over a small universe, sparse IDs over a huge one,
        // IDs near 2^62, negative IDs, and one value repeated.
        std::vector<graph::NodeId> dup, sparse, high, negative, same;
        for (size_t i = 0; i < size; ++i) {
            dup.push_back(
                static_cast<graph::NodeId>(rng.next_below(size / 4 + 1)));
            sparse.push_back(static_cast<graph::NodeId>(rng() >> 1));
            high.push_back(near_top - static_cast<graph::NodeId>(
                                          rng.next_below(1u << 20)));
            negative.push_back(static_cast<graph::NodeId>(rng()));
            same.push_back(42);
        }
        for (auto *v : {&dup, &sparse, &high, &negative, &same})
            lists.push_back(*v);
    }
    // The extremes of the ID type, interleaved with ordinary IDs.
    std::vector<graph::NodeId> extremes;
    for (int i = 0; i < 300; ++i)
        extremes.push_back(i % 3 == 0   ? INT64_MIN
                           : i % 3 == 1 ? INT64_MAX
                                        : graph::NodeId{i});
    lists.push_back(extremes);

    for (const auto &list : lists)
        ASSERT_EQ(match::NodeSet(list).sorted(), sort_unique(list))
            << "size " << list.size();
}

// ------------------------------------------- parallel degree matrix

std::vector<match::NodeSet>
random_node_sets(uint64_t seed, size_t count)
{
    // Mix of dense (bitmap-path), mid (merge) and tiny (gallop) sets.
    util::Rng rng(seed);
    std::vector<match::NodeSet> sets;
    for (size_t i = 0; i < count; ++i) {
        size_t size;
        switch (i % 3) {
          case 0: size = 400 + rng.next_below(300); break;
          case 1: size = 60 + rng.next_below(60); break;
          default: size = 2 + rng.next_below(8); break;
        }
        std::vector<graph::NodeId> v;
        for (size_t k = 0; k < size; ++k)
            v.push_back(
                static_cast<graph::NodeId>(rng.next_below(4096)));
        sets.emplace_back(v);
    }
    return sets;
}

TEST(MatchDegreeMatrix, ParallelIsBitIdenticalAcrossThreadCounts)
{
    const auto sets = random_node_sets(55, 40);
    const auto seq = match::match_degree_matrix(sets);
    for (size_t threads : {1, 2, 8}) {
        util::ThreadPool pool(threads);
        const auto par = match::match_degree_matrix(sets, pool);
        ASSERT_EQ(par.size(), seq.size());
        for (size_t i = 0; i < seq.size(); ++i) {
            for (size_t j = 0; j < seq.size(); ++j) {
                // Exact: all policies count the same integers and the
                // division is performed identically per cell.
                EXPECT_EQ(par[i][j], seq[i][j])
                    << "threads=" << threads << " cell " << i << ","
                    << j;
            }
        }
    }
}

TEST(MatchDegreeMatrix, MatrixMatchesPairwiseDefinition)
{
    const auto sets = random_node_sets(99, 12);
    const auto m = match::match_degree_matrix(sets);
    for (size_t i = 0; i < sets.size(); ++i) {
        EXPECT_EQ(m[i][i], 1.0);
        for (size_t j = 0; j < sets.size(); ++j) {
            if (i != j) {
                EXPECT_EQ(m[i][j],
                          match::match_degree(sets[i], sets[j]));
            }
        }
    }
}

TEST(MatchDegreeStats, DerivedFromMatrixEqualsPairwiseRecomputation)
{
    const auto sets = random_node_sets(123, 20);
    // The old implementation re-ran every pairwise intersection; pin
    // the new matrix-derived stats to that exact accumulation.
    double sum = 0.0, lo = 1.0, hi = 0.0;
    int64_t pairs = 0;
    for (size_t i = 0; i < sets.size(); ++i) {
        for (size_t j = i + 1; j < sets.size(); ++j) {
            const double d = match::match_degree(sets[i], sets[j]);
            sum += d;
            lo = std::min(lo, d);
            hi = std::max(hi, d);
            ++pairs;
        }
    }
    const auto stats = match::match_degree_stats(sets);
    EXPECT_EQ(stats.average, sum / double(pairs));
    EXPECT_EQ(stats.min, lo);
    EXPECT_EQ(stats.max, hi);

    const auto from_matrix =
        match::match_degree_stats(match::match_degree_matrix(sets));
    EXPECT_EQ(from_matrix.average, stats.average);
    EXPECT_EQ(from_matrix.min, stats.min);
    EXPECT_EQ(from_matrix.max, stats.max);
}

TEST(PairwiseOverlap, CountsMatchNodeSetIntersections)
{
    const auto sets = random_node_sets(321, 15);
    const size_t n = sets.size();
    util::ThreadPool pool(4);
    const auto seq = match::pairwise_overlap_counts(sets, nullptr);
    const auto par = match::pairwise_overlap_counts(sets, &pool);
    EXPECT_EQ(seq, par);
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(seq[i * n + i], sets[i].size());
        for (size_t j = 0; j < n; ++j) {
            if (i != j) {
                EXPECT_EQ(seq[i * n + j],
                          sets[i].intersection_size(sets[j]));
            }
        }
    }
}

TEST(Reorder, MaxOverlapIsPoolInvariant)
{
    const auto sets = random_node_sets(777, 24);
    util::ThreadPool pool(8);
    const auto seq =
        match::greedy_reorder_max_overlap(&sets[0], sets, nullptr);
    const auto par =
        match::greedy_reorder_max_overlap(&sets[0], sets, &pool);
    EXPECT_EQ(seq.order, par.order);
    EXPECT_EQ(seq.chained_match, par.chained_match);
    EXPECT_EQ(seq.baseline_match, par.baseline_match);
}

// ------------------------------------------------ golden bit-identity
//
// Hashes captured from the pre-overhaul implementation (sequential
// merge-join intersections, per-call heap scratch, unordered_map visit
// counts). The overhauled hot paths must reproduce them bit for bit.

using util::fnv;
using util::kFnvOffset;

using reference::hash_subgraph;

class GoldenBehavior : public ::testing::Test
{
  protected:
    GoldenBehavior()
    {
        graph::RmatParams rp;
        rp.num_nodes = 1 << 12;
        rp.num_edges = 1 << 16;
        rp.seed = 7;
        graph = graph::generate_rmat(rp);
        util::Rng seed_rng(99);
        for (int i = 0; i < 256; ++i)
            seeds.push_back(static_cast<graph::NodeId>(
                seed_rng.next_below(
                    static_cast<uint64_t>(graph.num_nodes()))));
    }

    graph::CsrGraph graph;
    std::vector<graph::NodeId> seeds;
};

TEST_F(GoldenBehavior, NeighborSamplerUnchanged)
{
    sample::NeighborSamplerOptions o;
    o.fanouts = {5, 10, 15};
    sample::NeighborSampler s(graph, o);
    uint64_t h = kFnvOffset;
    for (uint64_t k = 0; k < 4; ++k)
        h = fnv(h, hash_subgraph(s.sample(seeds, 1000 + k)));
    EXPECT_EQ(h, 0xDDACC40CDE0F4ECCULL);
}

TEST_F(GoldenBehavior, NeighborSamplerWithReplacementUnchanged)
{
    sample::NeighborSamplerOptions o;
    o.fanouts = {3, 50};
    o.replace = true;
    sample::NeighborSampler s(graph, o);
    EXPECT_EQ(hash_subgraph(s.sample(seeds, 5)),
              0x288DE3D938E51BDEULL);
}

TEST_F(GoldenBehavior, RandomWalkSamplerUnchanged)
{
    sample::RandomWalkOptions o;
    sample::RandomWalkSampler s(graph, o);
    uint64_t h = kFnvOffset;
    for (uint64_t k = 0; k < 4; ++k)
        h = fnv(h, hash_subgraph(s.sample(seeds, 2000 + k)));
    EXPECT_EQ(h, 0x0DA1FDDEB07C3450ULL);
}

TEST_F(GoldenBehavior, LayerSamplerUnchanged)
{
    sample::LayerSamplerOptions o;
    o.layer_sizes = {512, 256};
    o.seed = 31;
    sample::LayerSampler s(graph, o);
    uint64_t h = kFnvOffset;
    for (int k = 0; k < 3; ++k)
        h = fnv(h, hash_subgraph(s.sample(seeds)));
    EXPECT_EQ(h, 0x7AB1C1D67AA48D1CULL);
}

/** Digest of the ID-map counts the device model charges. */
uint64_t
hash_id_map(uint64_t h, const sample::SampledSubgraph &sg)
{
    h = fnv(h, static_cast<uint64_t>(sg.id_map.instances));
    h = fnv(h, static_cast<uint64_t>(sg.id_map.uniques));
    return fnv(h, static_cast<uint64_t>(sg.id_map.probes));
}

// hash_subgraph covers neither id_map.{instances, uniques, probes} nor
// anything else KernelModel::id_map_* reads, so these pins hold the
// ID-map workload fixed across changes to the hash table itself.
TEST_F(GoldenBehavior, IdMapCountsUnchanged)
{
    uint64_t h = kFnvOffset;
    {
        sample::NeighborSamplerOptions o;
        o.fanouts = {5, 10, 15};
        sample::NeighborSampler s(graph, o);
        for (uint64_t k = 0; k < 4; ++k)
            h = hash_id_map(h, s.sample(seeds, 1000 + k));
    }
    EXPECT_EQ(h, 0x3B52A9C4E015445DULL) << "NeighborSampler";

    h = kFnvOffset;
    {
        sample::NeighborSamplerOptions o;
        o.fanouts = {3, 50};
        o.replace = true;
        sample::NeighborSampler s(graph, o);
        h = hash_id_map(h, s.sample(seeds, 5));
    }
    EXPECT_EQ(h, 0x6ECCF16BBA57D6D7ULL)
        << "NeighborSampler with replacement";

    h = kFnvOffset;
    {
        sample::RandomWalkSampler s(graph, sample::RandomWalkOptions{});
        for (uint64_t k = 0; k < 4; ++k)
            h = hash_id_map(h, s.sample(seeds, 2000 + k));
    }
    EXPECT_EQ(h, 0x8B2E4F9417EC5CC5ULL) << "RandomWalkSampler";

    h = kFnvOffset;
    {
        sample::LayerSamplerOptions o;
        o.layer_sizes = {512, 256};
        o.seed = 31;
        sample::LayerSampler s(graph, o);
        for (int k = 0; k < 3; ++k)
            h = hash_id_map(h, s.sample(seeds));
    }
    EXPECT_EQ(h, 0x42CDB2D63B90DA67ULL) << "LayerSampler";

    h = kFnvOffset;
    {
        // The seed list holds duplicates, so the membership stream
        // exercises both the fresh and the repeat insert paths.
        sample::FusedHashTable table(16);
        for (int layers : {1, 3})
            h = hash_id_map(
                h, sample::induce_subgraph(graph, seeds, layers, table, 7));
    }
    EXPECT_EQ(h, 0x23E619E4205A77D5ULL) << "induce_subgraph";
}

TEST(GoldenMatch, MatrixStatsAndReorderUnchanged)
{
    util::Rng rng(123);
    std::vector<match::NodeSet> sets;
    for (int i = 0; i < 24; ++i) {
        std::vector<graph::NodeId> v;
        const uint64_t sz = 50 + rng.next_below(2000);
        for (uint64_t k = 0; k < sz; ++k)
            v.push_back(
                static_cast<graph::NodeId>(rng.next_below(8192)));
        sets.emplace_back(v);
    }
    const auto m = match::match_degree_matrix(sets);
    uint64_t h = kFnvOffset;
    for (const auto &row : m)
        for (double d : row)
            h = fnv(h, util::double_bits(d));
    EXPECT_EQ(h, 0xB74D0FBC2B736611ULL);

    const auto st = match::match_degree_stats(sets);
    uint64_t hs = kFnvOffset;
    hs = fnv(hs, util::double_bits(st.average));
    hs = fnv(hs, util::double_bits(st.min));
    hs = fnv(hs, util::double_bits(st.max));
    EXPECT_EQ(hs, 0xBFDF46218582D6BCULL);

    const auto rr = match::greedy_reorder(sets);
    const auto ra = match::greedy_reorder_max_overlap(&sets[0], sets);
    const auto rn = match::greedy_reorder_max_overlap(nullptr, sets);
    uint64_t hr = kFnvOffset;
    for (auto i : rr.order)
        hr = fnv(hr, static_cast<uint64_t>(i));
    for (auto i : ra.order)
        hr = fnv(hr, static_cast<uint64_t>(i));
    for (auto i : rn.order)
        hr = fnv(hr, static_cast<uint64_t>(i));
    EXPECT_EQ(hr, 0x1E2D75FA782F3B85ULL);
}

// ------------------------------------------- large-fanout regression
//
// The previous sampler rejected fanouts >= 64 (fixed stack buffer);
// large fanouts now spill to arena scratch.

class LargeFanout : public ::testing::TestWithParam<int>
{
};

TEST_P(LargeFanout, SampleSucceedsAndIsWellFormed)
{
    const int fanout = GetParam();
    graph::RmatParams rp;
    rp.num_nodes = 2000;
    rp.num_edges = 60000; // average degree 30, heavy-tailed tail > 128
    rp.seed = 17;
    const graph::CsrGraph g = graph::generate_rmat(rp);

    sample::NeighborSamplerOptions o;
    o.fanouts = {fanout};
    sample::NeighborSampler s(g, o);

    // Distinct seeds (duplicates would share a local ID and shrink the
    // target list); stride coprime to num_nodes covers low-ID hubs too.
    std::vector<graph::NodeId> seeds;
    for (int i = 0; i < 128; ++i)
        seeds.push_back(
            static_cast<graph::NodeId>((i * 31) % g.num_nodes()));

    const auto sg = s.sample(seeds, 42);
    ASSERT_EQ(sg.blocks.size(), 1u);
    const auto &blk = sg.blocks[0];
    ASSERT_EQ(blk.num_targets(), int64_t(seeds.size()));

    bool saw_full_fanout = false;
    for (int64_t t = 0; t < blk.num_targets(); ++t) {
        const graph::NodeId gu = sg.nodes[static_cast<size_t>(t)];
        const int64_t deg = g.degree(gu);
        const int64_t sampled = blk.indptr[t + 1] - blk.indptr[t];
        // min(degree, fanout) sampled neighbours plus the self edge.
        EXPECT_EQ(sampled,
                  std::min<int64_t>(deg, fanout) + 1)
            << "target " << t;
        if (deg >= fanout)
            saw_full_fanout = true;

        // Without replacement: sampled sources are distinct.
        std::vector<graph::NodeId> srcs(
            blk.sources.begin() + blk.indptr[t],
            blk.sources.begin() + blk.indptr[t + 1]);
        std::sort(srcs.begin(), srcs.end());
        EXPECT_TRUE(std::adjacent_find(srcs.begin(), srcs.end()) ==
                    srcs.end())
            << "duplicate sampled neighbour for target " << t;
    }
    // The graph must actually exercise the large-fanout path.
    EXPECT_TRUE(saw_full_fanout)
        << "no node with degree >= " << fanout << "; test is vacuous";

    // Determinism: same seeds + batch seed → identical subgraph.
    const auto sg2 = s.sample(seeds, 42);
    EXPECT_EQ(sg.nodes, sg2.nodes);
    ASSERT_EQ(sg2.blocks.size(), 1u);
    EXPECT_EQ(blk.indptr, sg2.blocks[0].indptr);
    EXPECT_EQ(blk.sources, sg2.blocks[0].sources);
}

INSTANTIATE_TEST_SUITE_P(Fanouts, LargeFanout,
                         ::testing::Values(64, 128));

} // namespace
} // namespace fastgl
