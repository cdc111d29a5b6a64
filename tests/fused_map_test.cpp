/**
 * @file
 * Property tests for the Fused-Map lock-free hash table (Algorithm 2).
 *
 * The core claims: (1) every distinct global ID receives exactly one local
 * ID; (2) local IDs are dense in [0, uniques); (3) this holds under real
 * multi-threaded insertion; (4) linear probing resolves collisions;
 * (5) the fused insert-and-translate and the concurrent path agree with
 * the sequential single-writer calls, probe counts included.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>

#include "sample/fused_hash_table.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fastgl {
namespace {

TEST(FusedHashTable, SequentialInsertAssignsInsertionOrder)
{
    sample::FusedHashTable table(16);
    EXPECT_TRUE(table.insert(100));
    EXPECT_TRUE(table.insert(200));
    EXPECT_FALSE(table.insert(100)); // duplicate: Flag == True path
    EXPECT_TRUE(table.insert(300));
    EXPECT_EQ(table.size(), 3);
    EXPECT_EQ(table.lookup(100), 0);
    EXPECT_EQ(table.lookup(200), 1);
    EXPECT_EQ(table.lookup(300), 2);
    EXPECT_EQ(table.lookup(999), graph::kInvalidNode);
}

TEST(FusedHashTable, LocalToGlobalIsExactInverse)
{
    sample::FusedHashTable table(64);
    std::vector<graph::NodeId> inserted = {5, 17, 3, 99, 42, 7};
    for (graph::NodeId g : inserted)
        table.insert(g);
    const auto l2g = table.local_to_global();
    ASSERT_EQ(l2g.size(), inserted.size());
    EXPECT_EQ(l2g, inserted); // sequential: insertion order
    for (size_t i = 0; i < l2g.size(); ++i)
        EXPECT_EQ(table.lookup(l2g[i]), graph::NodeId(i));
}

TEST(FusedHashTable, ResetClearsEverything)
{
    sample::FusedHashTable table(16);
    table.insert(1);
    table.insert(2);
    table.reset(16);
    EXPECT_EQ(table.size(), 0);
    EXPECT_EQ(table.probes(), 0u); // before lookups, which also probe
    EXPECT_EQ(table.lookup(1), graph::kInvalidNode);
}

TEST(FusedHashTable, ResetGrowsCapacity)
{
    sample::FusedHashTable table(4);
    const size_t before = table.capacity();
    table.reset(100000);
    EXPECT_GT(table.capacity(), before);
}

TEST(FusedHashTable, CollisionsResolvedByLinearProbing)
{
    // Tiny table forces collisions; all keys must still be found.
    sample::FusedHashTable table(8);
    std::vector<graph::NodeId> keys;
    for (graph::NodeId g = 0; g < 12; ++g)
        keys.push_back(g * 1000 + 7);
    for (graph::NodeId g : keys)
        EXPECT_TRUE(table.insert(g));
    std::set<graph::NodeId> locals;
    for (graph::NodeId g : keys) {
        const graph::NodeId local = table.lookup(g);
        EXPECT_NE(local, graph::kInvalidNode);
        locals.insert(local);
    }
    // Dense bijection.
    EXPECT_EQ(int64_t(locals.size()), table.size());
    EXPECT_EQ(*locals.begin(), 0);
    EXPECT_EQ(*locals.rbegin(), table.size() - 1);
}

TEST(FusedHashTable, ProbesCounted)
{
    sample::FusedHashTable table(1024);
    table.insert(1);
    EXPECT_GE(table.probes(), 1u);
}

/** Concurrent property test, parameterized by thread count. */
class FusedMapConcurrency : public ::testing::TestWithParam<int> {};

TEST_P(FusedMapConcurrency, ParallelInsertIsDenseBijection)
{
    const int threads = GetParam();
    util::ThreadPool pool(threads);
    util::Rng rng(2024);

    // Instance stream with heavy duplication (like sampled neighbours).
    constexpr size_t kInstances = 200000;
    constexpr uint64_t kUniverse = 20000;
    std::vector<graph::NodeId> stream(kInstances);
    for (auto &g : stream)
        g = static_cast<graph::NodeId>(rng.next_below(kUniverse));

    std::unordered_set<graph::NodeId> distinct(stream.begin(),
                                               stream.end());

    sample::FusedHashTable table(kInstances);
    table.insert_stream_parallel(stream, pool);

    // (1) unique count is exact.
    ASSERT_EQ(table.size(), int64_t(distinct.size()));

    // (2) every inserted global resolves to a local in range, and the
    // mapping is injective.
    std::vector<bool> seen(distinct.size(), false);
    for (graph::NodeId g : distinct) {
        const graph::NodeId local = table.lookup(g);
        ASSERT_GE(local, 0);
        ASSERT_LT(local, table.size());
        ASSERT_FALSE(seen[static_cast<size_t>(local)])
            << "two globals share local " << local;
        seen[static_cast<size_t>(local)] = true;
    }

    // (3) local_to_global is the exact inverse.
    const auto l2g = table.local_to_global();
    for (size_t local = 0; local < l2g.size(); ++local) {
        ASSERT_NE(l2g[local], graph::kInvalidNode);
        ASSERT_EQ(table.lookup(l2g[local]), graph::NodeId(local));
    }
}

INSTANTIATE_TEST_SUITE_P(Threads, FusedMapConcurrency,
                         ::testing::Values(1, 2, 4, 8));

TEST(FusedHashTable, ParallelAndSequentialAgreeOnUniqueCount)
{
    util::Rng rng(7);
    std::vector<graph::NodeId> stream(50000);
    for (auto &g : stream)
        g = static_cast<graph::NodeId>(rng.next_below(6000));

    sample::FusedHashTable seq(stream.size());
    seq.insert_stream(stream);

    util::ThreadPool pool(4);
    sample::FusedHashTable par(stream.size());
    par.insert_stream_parallel(stream, pool);

    EXPECT_EQ(seq.size(), par.size());
    // Same *set* of globals even if local IDs were raced differently.
    auto a = seq.local_to_global();
    auto b = par.local_to_global();
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
}

/** A heavily duplicated stream over a small universe. */
std::vector<graph::NodeId>
duplicated_stream(uint64_t seed, size_t length, uint64_t universe)
{
    util::Rng rng(seed);
    std::vector<graph::NodeId> stream(length);
    for (auto &g : stream)
        g = static_cast<graph::NodeId>(rng.next_below(universe));
    return stream;
}

TEST(FusedHashTable, OneThreadParallelInsertEqualsSequential)
{
    // One worker runs the whole stream as one chunk, in order, so the
    // compare-and-swap path must reproduce the single-writer path
    // exactly: same local IDs, same probe count.
    const auto stream = duplicated_stream(11, 40000, 5000);
    sample::FusedHashTable seq(stream.size());
    seq.insert_stream(stream);

    util::ThreadPool pool(1);
    sample::FusedHashTable par(stream.size());
    par.insert_stream_parallel(stream, pool);

    EXPECT_EQ(par.size(), seq.size());
    EXPECT_EQ(par.probes(), seq.probes());
    EXPECT_EQ(par.local_to_global(), seq.local_to_global());
    for (graph::NodeId g : stream)
        ASSERT_EQ(par.lookup(g), seq.lookup(g));
}

TEST(FusedHashTable, InsertTranslateEqualsInsertThenLookup)
{
    // A table sized for a tenth of the stream keeps probe walks long.
    const auto stream = duplicated_stream(12, 20000, 3000);
    sample::FusedHashTable fused(stream.size() / 10);
    sample::FusedHashTable split(stream.size() / 10);
    for (int round = 0; round < 2; ++round) {
        for (graph::NodeId g : stream) {
            const int64_t before = split.size();
            const bool fresh = split.insert(g);
            const graph::NodeId want = split.lookup(g);
            const graph::NodeId got = fused.insert_translate(g);
            ASSERT_EQ(got, want);
            ASSERT_EQ(got == before, fresh);
            ASSERT_EQ(fused.probes(), split.probes());
        }
        EXPECT_EQ(fused.local_to_global(), split.local_to_global());
        // The second round starts from a reset table of the same size.
        fused.reset(stream.size() / 10);
        split.reset(stream.size() / 10);
    }
}

TEST(FusedHashTable, ResetAfterParallelFillClearsEverySlot)
{
    // Parallel claims are not recorded, so the reset must sweep.
    const auto stream = duplicated_stream(13, 10000, 4000);
    util::ThreadPool pool(4);
    sample::FusedHashTable table(stream.size());
    table.insert_stream_parallel(stream, pool);
    table.reset(stream.size());
    for (graph::NodeId g : stream)
        ASSERT_EQ(table.lookup(g), graph::kInvalidNode);
    EXPECT_TRUE(table.insert(stream[0]));
    EXPECT_EQ(table.local_to_global(),
              std::vector<graph::NodeId>{stream[0]});
}

} // namespace
} // namespace fastgl
