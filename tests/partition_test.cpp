/**
 * @file
 * Tests for the graph partitioners (ClusterGCN / multi-machine substrate).
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>

#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/partition.h"

namespace fastgl {
namespace {

graph::CsrGraph
test_graph(int nodes = 4000)
{
    graph::RmatParams params;
    params.num_nodes = nodes;
    params.num_edges = nodes * 8;
    params.seed = 19;
    return graph::generate_rmat(params);
}

void
check_valid_partition(const graph::Partitioning &parts,
                      const graph::CsrGraph &g, int k)
{
    ASSERT_EQ(parts.num_parts(), k);
    ASSERT_EQ(parts.part_of.size(), size_t(g.num_nodes()));
    // Every node assigned exactly once.
    std::vector<bool> seen(size_t(g.num_nodes()), false);
    for (int p = 0; p < k; ++p) {
        for (graph::NodeId u : parts.members[size_t(p)]) {
            ASSERT_GE(u, 0);
            ASSERT_LT(u, g.num_nodes());
            ASSERT_FALSE(seen[size_t(u)]) << "node " << u << " twice";
            seen[size_t(u)] = true;
            ASSERT_EQ(parts.part_of[size_t(u)], p);
        }
    }
    for (bool b : seen)
        ASSERT_TRUE(b);
}

class PartitionProperty : public ::testing::TestWithParam<int> {};

TEST_P(PartitionProperty, BfsCoversAllNodesOnce)
{
    graph::CsrGraph g = test_graph();
    const auto parts = graph::partition_bfs(g, GetParam());
    check_valid_partition(parts, g, GetParam());
}

TEST_P(PartitionProperty, LdgCoversAllNodesOnce)
{
    graph::CsrGraph g = test_graph();
    const auto parts = graph::partition_ldg(g, GetParam());
    check_valid_partition(parts, g, GetParam());
}

TEST_P(PartitionProperty, LdgIsReasonablyBalanced)
{
    graph::CsrGraph g = test_graph();
    const auto parts = graph::partition_ldg(g, GetParam());
    EXPECT_LT(parts.balance(g), 1.25);
}

INSTANTIATE_TEST_SUITE_P(Parts, PartitionProperty,
                         ::testing::Values(2, 4, 16, 32));

TEST(Partition, SinglePartHasNoCut)
{
    graph::CsrGraph g = test_graph(500);
    const auto parts = graph::partition_ldg(g, 1);
    EXPECT_EQ(parts.count_cut_edges(g), 0);
    EXPECT_NEAR(parts.balance(g), 1.0, 1e-9);
}

TEST(Partition, LdgCutBeatsRandomAssignment)
{
    // LDG must beat the expected random cut fraction (1 - 1/k).
    graph::CsrGraph g = test_graph();
    const int k = 8;
    const auto parts = graph::partition_ldg(g, k);
    const double cut_fraction =
        double(parts.count_cut_edges(g)) / double(g.num_edges());
    EXPECT_LT(cut_fraction, 1.0 - 1.0 / double(k));
}

TEST(Partition, CutEdgesSymmetricOnUndirectedGraph)
{
    graph::CsrGraph g = test_graph(1000);
    const auto parts = graph::partition_bfs(g, 4);
    // The generator mirrors every edge, so the cut count is even.
    EXPECT_EQ(parts.count_cut_edges(g) % 2, 0);
}

TEST(Partition, Deterministic)
{
    graph::CsrGraph g = test_graph(2000);
    const auto a = graph::partition_ldg(g, 8);
    const auto b = graph::partition_ldg(g, 8);
    EXPECT_EQ(a.part_of, b.part_of);
}

// ---- Edge-case hardening: the partitioners must stay deterministic
// ---- and crash-free on degenerate inputs (k > n, k == 1,
// ---- disconnected graphs, the empty graph).

TEST(PartitionEdgeCases, MorePartsThanNodes)
{
    graph::CsrGraph g = test_graph(10);
    for (auto *fn : {graph::partition_bfs, graph::partition_ldg}) {
        const auto parts = fn(g, 32);
        check_valid_partition(parts, g, 32);
        // Surplus partitions stay empty rather than crashing.
        size_t empty = 0;
        for (const auto &members : parts.members)
            empty += members.empty() ? 1 : 0;
        EXPECT_GE(empty, size_t(32 - 10));
    }
}

TEST(PartitionEdgeCases, SinglePartition)
{
    graph::CsrGraph g = test_graph(300);
    for (auto *fn : {graph::partition_bfs, graph::partition_ldg}) {
        const auto parts = fn(g, 1);
        check_valid_partition(parts, g, 1);
        EXPECT_EQ(parts.count_cut_edges(g), 0);
    }
}

TEST(PartitionEdgeCases, DisconnectedComponentsAllAssigned)
{
    // Three 4-cliques with no edges between them, plus two fully
    // isolated nodes: BFS must restart across components.
    graph::GraphBuilder builder(14);
    for (int c = 0; c < 3; ++c) {
        const int base = c * 4;
        for (int i = 0; i < 4; ++i)
            for (int j = i + 1; j < 4; ++j)
                builder.add_undirected_edge(base + i, base + j);
    }
    graph::CsrGraph g = builder.build();
    for (auto *fn : {graph::partition_bfs, graph::partition_ldg}) {
        const auto parts = fn(g, 3);
        check_valid_partition(parts, g, 3);
    }
    // BFS restarts from the lowest unassigned node, so on this
    // ID-ordered component layout the partition labels are
    // non-decreasing in node ID (a partition may top itself up with
    // the next component's first nodes, but never jumps back).
    const auto parts = graph::partition_bfs(g, 3);
    for (graph::NodeId u = 1; u < g.num_nodes(); ++u)
        EXPECT_GE(parts.part_of[size_t(u)],
                  parts.part_of[size_t(u - 1)]);
}

TEST(PartitionEdgeCases, EmptyGraph)
{
    graph::GraphBuilder builder(0);
    graph::CsrGraph g = builder.build();
    for (auto *fn : {graph::partition_bfs, graph::partition_ldg}) {
        const auto parts = fn(g, 4);
        EXPECT_EQ(parts.num_parts(), 4);
        EXPECT_TRUE(parts.part_of.empty());
        for (const auto &members : parts.members)
            EXPECT_TRUE(members.empty());
    }
}

TEST(PartitionEdgeCases, DispatchAndNames)
{
    graph::CsrGraph g = test_graph(200);
    EXPECT_STREQ(graph::partitioner_name(graph::PartitionerKind::kBfs),
                 "bfs");
    EXPECT_STREQ(graph::partitioner_name(graph::PartitionerKind::kLdg),
                 "ldg");
    EXPECT_EQ(graph::partition_graph(g, 4,
                                     graph::PartitionerKind::kBfs)
                  .part_of,
              graph::partition_bfs(g, 4).part_of);
    EXPECT_EQ(graph::partition_graph(g, 4,
                                     graph::PartitionerKind::kLdg)
                  .part_of,
              graph::partition_ldg(g, 4).part_of);
}

// ---- Text serialization (the same compute-once-reuse-everywhere
// ---- shape as match::WarmupTrace).

TEST(PartitionSerialize, RoundTrip)
{
    graph::CsrGraph g = test_graph(1500);
    const auto parts = graph::partition_ldg(g, 6);
    const std::string path =
        ::testing::TempDir() + "partition_roundtrip.txt";
    ASSERT_TRUE(graph::save_partitioning(path, parts));
    const auto loaded = graph::load_partitioning(path);
    EXPECT_EQ(loaded.part_of, parts.part_of);
    EXPECT_EQ(loaded.members, parts.members);
    check_valid_partition(loaded, g, 6);
    std::remove(path.c_str());
}

TEST(PartitionSerialize, MissingFileIsEmpty)
{
    const auto loaded =
        graph::load_partitioning("/nonexistent/partition.txt");
    EXPECT_TRUE(loaded.empty());
    EXPECT_TRUE(loaded.part_of.empty());
}

TEST(PartitionSerialize, RejectsWrongMagicAndBadIndices)
{
    const std::string bad_magic =
        ::testing::TempDir() + "partition_bad_magic.txt";
    {
        std::ofstream out(bad_magic);
        out << "not-a-partition 2 2\n0\n1\n";
    }
    EXPECT_TRUE(graph::load_partitioning(bad_magic).empty());
    std::remove(bad_magic.c_str());

    const std::string bad_index =
        ::testing::TempDir() + "partition_bad_index.txt";
    {
        std::ofstream out(bad_index);
        out << "fastgl-partition-v1 2 2\n0\n7\n";
    }
    EXPECT_TRUE(graph::load_partitioning(bad_index).empty());
    std::remove(bad_index.c_str());
}

TEST(PartitionSerialize, RejectsCountLargerThanFile)
{
    // The header claims 10^14 nodes but three entries follow: the load
    // must fail cleanly, not resize to the header's count.
    const std::string path =
        ::testing::TempDir() + "partition_oversized.txt";
    {
        std::ofstream out(path);
        out << "fastgl-partition-v1 2 100000000000000\n0\n1\n0\n";
    }
    EXPECT_TRUE(graph::load_partitioning(path).empty());
    std::remove(path.c_str());
}

} // namespace
} // namespace fastgl
