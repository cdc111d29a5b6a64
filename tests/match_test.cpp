/**
 * @file
 * Tests for Match-Reorder: node sets, match degrees, the Match transfer
 * planner, greedy Reorder (Algorithm 1), and the feature caches.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>
#include <string>

#include "graph/generators.h"
#include "match/feature_cache.h"
#include "match/match.h"
#include "match/match_degree.h"
#include "match/reorder.h"
#include "util/rng.h"

namespace fastgl {
namespace {

TEST(NodeSet, SortsAndDedups)
{
    match::NodeSet set({5, 3, 5, 1, 3});
    EXPECT_EQ(set.size(), 3);
    EXPECT_EQ(set.sorted(), (std::vector<graph::NodeId>{1, 3, 5}));
    EXPECT_TRUE(set.contains(3));
    EXPECT_FALSE(set.contains(4));
}

TEST(NodeSet, IntersectionAndDifference)
{
    match::NodeSet a({1, 2, 3, 4});
    match::NodeSet b({3, 4, 5});
    EXPECT_EQ(a.intersection_size(b), 2);
    std::vector<graph::NodeId> diff;
    a.difference(b, diff);
    EXPECT_EQ(diff, (std::vector<graph::NodeId>{1, 2}));
}

TEST(MatchDegree, PaperDefinition)
{
    // M_ij = N_o / min(N_i, N_j).
    match::NodeSet a({1, 2, 3, 4});
    match::NodeSet b({3, 4});
    EXPECT_DOUBLE_EQ(match::match_degree(a, b), 1.0); // b ⊂ a
    match::NodeSet c({4, 5});
    EXPECT_DOUBLE_EQ(match::match_degree(b, c), 0.5);
    match::NodeSet empty(std::vector<graph::NodeId>{});
    EXPECT_DOUBLE_EQ(match::match_degree(a, empty), 0.0);
}

TEST(MatchDegree, MatrixIsSymmetricWithUnitDiagonal)
{
    std::vector<match::NodeSet> sets = {
        match::NodeSet({1, 2, 3}), match::NodeSet({2, 3, 4}),
        match::NodeSet({7, 8})};
    const auto m = match::match_degree_matrix(sets);
    for (size_t i = 0; i < sets.size(); ++i) {
        EXPECT_DOUBLE_EQ(m[i][i], 1.0);
        for (size_t j = 0; j < sets.size(); ++j)
            EXPECT_DOUBLE_EQ(m[i][j], m[j][i]);
    }
    EXPECT_DOUBLE_EQ(m[0][2], 0.0);
}

TEST(MatchDegree, StatsDeltaIsMaxMinusMin)
{
    std::vector<match::NodeSet> sets = {
        match::NodeSet({1, 2, 3, 4}), match::NodeSet({1, 2, 3, 5}),
        match::NodeSet({1, 9, 10, 11})};
    const auto stats = match::match_degree_stats(sets);
    EXPECT_DOUBLE_EQ(stats.max, 0.75);
    EXPECT_DOUBLE_EQ(stats.min, 0.25);
    EXPECT_DOUBLE_EQ(stats.delta(), 0.5);
    EXPECT_GT(stats.average, 0.0);
}

TEST(Matcher, FirstBatchLoadsEverything)
{
    match::Matcher matcher;
    const auto plan = matcher.plan(match::NodeSet({1, 2, 3}));
    EXPECT_EQ(plan.load_count(), 3);
    EXPECT_EQ(plan.overlap_nodes, 0);
}

TEST(Matcher, SecondBatchLoadsOnlyDifference)
{
    // Paper Fig. 6(a): after SubG1 {0,3,4,...}, SubG2 reuses the overlap
    // and loads only the new nodes.
    match::Matcher matcher;
    matcher.plan(match::NodeSet({0, 2, 3, 4, 7}));
    const auto plan = matcher.plan(match::NodeSet({0, 3, 4, 10, 12}));
    EXPECT_EQ(plan.overlap_nodes, 3); // 0, 3, 4
    EXPECT_EQ(plan.load_nodes, (std::vector<graph::NodeId>{10, 12}));
    EXPECT_DOUBLE_EQ(matcher.reuse_fraction(), 3.0 / 10.0);
}

TEST(Matcher, LoadBytesScalesWithRowBytes)
{
    match::Matcher matcher;
    const auto plan = matcher.plan(match::NodeSet({1, 2, 3, 4}));
    EXPECT_EQ(plan.load_bytes(100), 400u);
}

TEST(Matcher, ResetForgetsResidentBatch)
{
    match::Matcher matcher;
    matcher.plan(match::NodeSet({1, 2, 3}));
    matcher.reset();
    const auto plan = matcher.plan(match::NodeSet({1, 2, 3}));
    EXPECT_EQ(plan.load_count(), 3);
}

TEST(Reorder, OrderIsAPermutationStartingAtZero)
{
    std::vector<match::NodeSet> sets;
    util::Rng rng(5);
    for (int i = 0; i < 10; ++i) {
        std::vector<graph::NodeId> nodes;
        for (int k = 0; k < 50; ++k)
            nodes.push_back(graph::NodeId(rng.next_below(200)));
        sets.emplace_back(nodes);
    }
    const auto result = match::greedy_reorder(sets);
    ASSERT_EQ(result.order.size(), sets.size());
    EXPECT_EQ(result.order[0], 0); // Algorithm 1 line 4
    std::vector<int64_t> sorted = result.order;
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < sorted.size(); ++i)
        EXPECT_EQ(sorted[i], int64_t(i));
}

TEST(Reorder, ChainedMatchIsConsistentWithReportedOrder)
{
    // chained_match must equal the sum of consecutive match degrees of
    // the emitted order, and the first hop must be the argmax from the
    // anchor (Algorithm 1 line 7).
    util::Rng rng(17);
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<match::NodeSet> sets;
        for (int i = 0; i < 8; ++i) {
            std::vector<graph::NodeId> nodes;
            for (int k = 0; k < 40; ++k)
                nodes.push_back(graph::NodeId(rng.next_below(120)));
            sets.emplace_back(nodes);
        }
        const auto m = match::match_degree_matrix(sets);
        const auto result = match::greedy_reorder(m);
        double chained = 0.0;
        for (size_t i = 1; i < result.order.size(); ++i) {
            chained += m[size_t(result.order[i - 1])]
                        [size_t(result.order[i])];
        }
        EXPECT_NEAR(chained, result.chained_match, 1e-12);
        double best_first = -1.0;
        for (size_t k = 1; k < sets.size(); ++k)
            best_first = std::max(best_first, m[0][k]);
        EXPECT_DOUBLE_EQ(m[0][size_t(result.order[1])], best_first);
    }
}

TEST(Reorder, GreedyBeatsDefaultOrderOnAverage)
{
    // Greedy reorder is a heuristic — not guaranteed to beat the default
    // order on every instance — but on sampled-subgraph-like inputs it
    // must win in aggregate (the paper's Fig. 10b premise).
    util::Rng rng(23);
    double greedy_sum = 0.0, baseline_sum = 0.0;
    int wins = 0, trials = 25;
    for (int trial = 0; trial < trials; ++trial) {
        std::vector<match::NodeSet> sets;
        for (int i = 0; i < 8; ++i) {
            std::vector<graph::NodeId> nodes;
            for (int k = 0; k < 40; ++k)
                nodes.push_back(graph::NodeId(rng.next_below(120)));
            sets.emplace_back(nodes);
        }
        const auto result = match::greedy_reorder(sets);
        greedy_sum += result.chained_match;
        baseline_sum += result.baseline_match;
        if (result.chained_match + 1e-12 >= result.baseline_match)
            ++wins;
    }
    EXPECT_GT(greedy_sum, baseline_sum);
    EXPECT_GE(wins, trials * 3 / 4);
}

TEST(Reorder, PicksObviousBestChain)
{
    // Paper Fig. 6(b): with m13 > m12 the order swaps SubG2 and SubG3.
    std::vector<std::vector<double>> m = {
        {1.0, 0.2, 0.9},
        {0.2, 1.0, 0.5},
        {0.9, 0.5, 1.0},
    };
    const auto result = match::greedy_reorder(m);
    EXPECT_EQ(result.order, (std::vector<int64_t>{0, 2, 1}));
    EXPECT_DOUBLE_EQ(result.chained_match, 0.9 + 0.5);
    EXPECT_DOUBLE_EQ(result.baseline_match, 0.2 + 0.5);
}

TEST(Reorder, HandlesDegenerateSizes)
{
    EXPECT_TRUE(match::greedy_reorder(
                    std::vector<std::vector<double>>{})
                    .order.empty());
    const auto one = match::greedy_reorder(
        std::vector<std::vector<double>>{{1.0}});
    EXPECT_EQ(one.order, (std::vector<int64_t>{0}));
}

TEST(FeatureCache, CachesTopOfRanking)
{
    std::vector<graph::NodeId> ranking = {5, 3, 1, 0, 2, 4};
    match::StaticFeatureCache cache(6, ranking, 2);
    EXPECT_TRUE(cache.contains(5));
    EXPECT_TRUE(cache.contains(3));
    EXPECT_FALSE(cache.contains(1));
}

TEST(FeatureCache, HitRateAccounting)
{
    std::vector<graph::NodeId> ranking = {0, 1, 2, 3};
    match::StaticFeatureCache cache(4, ranking, 2);
    std::vector<graph::NodeId> batch = {0, 1, 2, 3};
    EXPECT_EQ(cache.lookup_batch(batch), 2); // 2 misses
    EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);
    cache.reset_stats();
    EXPECT_EQ(cache.hits(), 0);
}

TEST(FeatureCache, DegreeRankingPrefersHubs)
{
    graph::RmatParams params;
    params.num_nodes = 512;
    params.num_edges = 8192;
    graph::CsrGraph g = graph::generate_rmat(params);
    const auto ranking = match::degree_ranking(g);
    ASSERT_EQ(ranking.size(), size_t(g.num_nodes()));
    for (size_t i = 1; i < ranking.size(); ++i)
        EXPECT_GE(g.degree(ranking[i - 1]), g.degree(ranking[i]));
}

TEST(FeatureCache, PresampleRankingSortsByFrequency)
{
    std::vector<int64_t> freq = {5, 100, 7, 0};
    const auto ranking = match::presample_ranking(freq);
    EXPECT_EQ(ranking[0], 1);
    EXPECT_EQ(ranking[1], 2);
    EXPECT_EQ(ranking[2], 0);
    EXPECT_EQ(ranking[3], 3);
}

TEST(FeatureCache, ZeroCapacityNeverHits)
{
    match::StaticFeatureCache cache(10, {1, 2, 3}, 0);
    std::vector<graph::NodeId> batch = {1, 2, 3};
    EXPECT_EQ(cache.lookup_batch(batch), 3);
    EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.0);
}

// ---------------------------------------------------------------------
// Warmup traces
// ---------------------------------------------------------------------

TEST(WarmupTrace, SaveLoadRoundTripsFrequencies)
{
    match::WarmupTrace trace;
    trace.frequencies = {0, 5, 17, 0, 123456789012345LL, 2};
    EXPECT_FALSE(trace.empty());

    const std::string path =
        testing::TempDir() + "fastgl_warmup_roundtrip.trace";
    ASSERT_TRUE(match::save_warmup_trace(path, trace));
    const match::WarmupTrace loaded = match::load_warmup_trace(path);
    EXPECT_EQ(loaded.frequencies, trace.frequencies);
    std::remove(path.c_str());
}

TEST(WarmupTrace, LoadOfMissingOrCorruptFileIsEmptyNotFatal)
{
    EXPECT_TRUE(
        match::load_warmup_trace("/nonexistent/warmup.trace").empty());

    const std::string path =
        testing::TempDir() + "fastgl_warmup_corrupt.trace";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("not-a-warmup-trace 3\n1\n2\n3\n", f);
    std::fclose(f);
    EXPECT_TRUE(match::load_warmup_trace(path).empty());
    std::remove(path.c_str());
}

TEST(WarmupTrace, LoadRejectsCountLargerThanFile)
{
    // A 39-byte file claiming 10^14 entries: the load must fail cleanly
    // instead of resizing to the header's count (bad_alloc).
    const std::string path =
        testing::TempDir() + "fastgl_warmup_oversized.trace";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("fastgl-warmup-v1 100000000000000\n1\n2\n3\n", f);
    std::fclose(f);
    EXPECT_TRUE(match::load_warmup_trace(path).empty());
    std::remove(path.c_str());
}

TEST(WarmupTrace, RankingFromFrequenciesIsHottestFirst)
{
    match::WarmupTrace trace;
    trace.frequencies = {3, 9, 0, 7};
    const std::vector<graph::NodeId> ranking =
        match::presample_ranking(trace.frequencies);
    ASSERT_EQ(ranking.size(), 4u);
    EXPECT_EQ(ranking[0], 1);
    EXPECT_EQ(ranking[1], 3);
    EXPECT_EQ(ranking[2], 0);
    EXPECT_EQ(ranking[3], 2);
}

} // namespace
} // namespace fastgl
