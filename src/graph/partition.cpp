#include "graph/partition.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <numeric>
#include <queue>

#include "graph/serialize.h"
#include "util/logging.h"

namespace fastgl {
namespace graph {

namespace {

Partitioning
finalize(std::vector<int32_t> part_of, int num_parts)
{
    Partitioning result;
    result.members.resize(static_cast<size_t>(num_parts));
    for (size_t u = 0; u < part_of.size(); ++u)
        result.members[static_cast<size_t>(part_of[u])].push_back(
            NodeId(u));
    result.part_of = std::move(part_of);
    return result;
}

} // namespace

int64_t
Partitioning::count_cut_edges(const CsrGraph &graph) const
{
    int64_t cut = 0;
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
        for (NodeId v : graph.neighbors(u)) {
            if (part_of[static_cast<size_t>(u)] !=
                part_of[static_cast<size_t>(v)])
                ++cut;
        }
    }
    return cut;
}

double
Partitioning::balance(const CsrGraph &graph) const
{
    size_t largest = 0;
    for (const auto &part : members)
        largest = std::max(largest, part.size());
    const double ideal =
        double(graph.num_nodes()) / double(members.size());
    return ideal > 0.0 ? double(largest) / ideal : 0.0;
}

Partitioning
partition_bfs(const CsrGraph &graph, int num_parts)
{
    FASTGL_CHECK(num_parts > 0, "need at least one partition");
    const NodeId n = graph.num_nodes();
    const int64_t target = (n + num_parts - 1) / num_parts;
    std::vector<int32_t> part_of(static_cast<size_t>(n), -1);

    int part = 0;
    int64_t filled = 0;
    std::queue<NodeId> frontier;
    NodeId scan = 0;
    while (true) {
        // Find the next unassigned node to (re)start the BFS.
        while (scan < n && part_of[static_cast<size_t>(scan)] != -1)
            ++scan;
        if (scan >= n)
            break;
        frontier.push(scan);
        part_of[static_cast<size_t>(scan)] = part;
        ++filled;
        while (!frontier.empty()) {
            const NodeId u = frontier.front();
            frontier.pop();
            for (NodeId v : graph.neighbors(u)) {
                if (part_of[static_cast<size_t>(v)] != -1)
                    continue;
                if (filled >= target && part + 1 < num_parts) {
                    ++part;
                    filled = 0;
                }
                part_of[static_cast<size_t>(v)] = part;
                ++filled;
                frontier.push(v);
            }
            if (filled >= target && part + 1 < num_parts &&
                frontier.empty()) {
                ++part;
                filled = 0;
            }
        }
    }
    return finalize(std::move(part_of), num_parts);
}

Partitioning
partition_ldg(const CsrGraph &graph, int num_parts)
{
    FASTGL_CHECK(num_parts > 0, "need at least one partition");
    const NodeId n = graph.num_nodes();
    const double capacity =
        1.1 * double(n) / double(num_parts) + 1.0;

    // Degree-descending placement order: hubs anchor partitions.
    std::vector<NodeId> order(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&graph](NodeId a, NodeId b) {
                         return graph.degree(a) > graph.degree(b);
                     });

    std::vector<int32_t> part_of(static_cast<size_t>(n), -1);
    std::vector<int64_t> size(static_cast<size_t>(num_parts), 0);
    std::vector<int64_t> neighbour_count(
        static_cast<size_t>(num_parts), 0);

    for (NodeId u : order) {
        std::fill(neighbour_count.begin(), neighbour_count.end(), 0);
        for (NodeId v : graph.neighbors(u)) {
            const int32_t p = part_of[static_cast<size_t>(v)];
            if (p >= 0)
                ++neighbour_count[static_cast<size_t>(p)];
        }
        // LDG score: neighbours * (1 - size/capacity).
        int best = 0;
        double best_score = -1.0;
        for (int p = 0; p < num_parts; ++p) {
            const double penalty =
                1.0 - double(size[static_cast<size_t>(p)]) / capacity;
            if (penalty <= 0.0)
                continue;
            const double score =
                (double(neighbour_count[static_cast<size_t>(p)]) + 1.0) *
                penalty;
            if (score > best_score) {
                best_score = score;
                best = p;
            }
        }
        part_of[static_cast<size_t>(u)] = best;
        ++size[static_cast<size_t>(best)];
    }
    return finalize(std::move(part_of), num_parts);
}

const char *
partitioner_name(PartitionerKind kind)
{
    return kind == PartitionerKind::kBfs ? "bfs" : "ldg";
}

Partitioning
partition_graph(const CsrGraph &graph, int num_parts,
                PartitionerKind kind)
{
    return kind == PartitionerKind::kBfs
               ? partition_bfs(graph, num_parts)
               : partition_ldg(graph, num_parts);
}

namespace {

constexpr char kPartitionMagic[] = "fastgl-partition-v1";
/** Most partitions a file may declare: far beyond any modelled device
 *  count, small enough that the member lists always fit. */
constexpr int kMaxPartitions = 1 << 16;

} // namespace

bool
save_partitioning(const std::string &path, const Partitioning &parts)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        util::warn("cannot write partitioning to " + path);
        return false;
    }
    std::fprintf(f, "%s %d %zu\n", kPartitionMagic, parts.num_parts(),
                 parts.part_of.size());
    for (int32_t p : parts.part_of)
        std::fprintf(f, "%" PRId32 "\n", p);
    std::fclose(f);
    return true;
}

Partitioning
load_partitioning(const std::string &path)
{
    Partitioning parts;
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f) {
        util::warn("cannot read partitioning from " + path);
        return parts;
    }
    char magic[32] = {0};
    int num_parts = 0;
    size_t num_nodes = 0;
    if (std::fscanf(f, "%31s %d %zu", magic, &num_parts, &num_nodes) !=
            3 ||
        std::string(magic) != kPartitionMagic || num_parts < 1 ||
        num_parts > kMaxPartitions) {
        util::warn("not a partitioning: " + path);
        std::fclose(f);
        return parts;
    }
    // Every entry takes at least a separator and a digit.
    if (num_nodes > bytes_left(f) / 2) {
        util::warn("partitioning count exceeds its file: " + path);
        std::fclose(f);
        return parts;
    }
    std::vector<int32_t> part_of(num_nodes, -1);
    for (size_t i = 0; i < num_nodes; ++i) {
        int32_t p = -1;
        if (std::fscanf(f, "%" SCNd32, &p) != 1 || p < 0 ||
            p >= num_parts) {
            util::warn("truncated or out-of-range partitioning: " +
                       path);
            std::fclose(f);
            return parts;
        }
        part_of[i] = p;
    }
    const bool exact = only_space_left(f);
    std::fclose(f);
    if (!exact) {
        util::warn("partitioning holds more entries than its count: " +
                   path);
        return parts;
    }
    return finalize(std::move(part_of), num_parts);
}

} // namespace graph
} // namespace fastgl
