/**
 * @file
 * Mutation fuzz of every file loader: a small graph, dataset,
 * partitioning and warmup trace are saved, then deterministically
 * corrupted (bytes flipped, the file truncated, counts overwritten with
 * hostile values) and loaded again. Every mutant must either fail the
 * load or load something that validates — never abort, never allocate
 * what the file cannot back.
 */
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/partition.h"
#include "graph/serialize.h"
#include "match/feature_cache.h"
#include "util/rng.h"

namespace fastgl {
namespace {

/** Values a corrupt count field is likely to hold. */
constexpr uint64_t kHostileCounts[] = {
    0, 1, 2, 7, 0xFF, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF,
    1ULL << 33, 1ULL << 62, ~0ULL, ~0ULL - 1,
};

/**
 * One seeded mutant of @p clean: flipped bytes, a truncation, or a
 * hostile count written over an 8-byte field (binary files) or over a
 * number (text files).
 */
std::string
mutate(const std::string &clean, bool text, util::Rng &rng)
{
    std::string m = clean;
    const uint64_t op = rng.next_below(3);
    if (op == 0) {
        const uint64_t flips = 1 + rng.next_below(4);
        for (uint64_t i = 0; i < flips; ++i)
            m[rng.next_below(m.size())] ^=
                static_cast<char>(1 + rng.next_below(255));
    } else if (op == 1) {
        m.resize(rng.next_below(m.size()));
    } else {
        const uint64_t value = kHostileCounts[rng.next_below(
            std::size(kHostileCounts))];
        if (!text) {
            const size_t at = 8 * rng.next_below(m.size() / 8);
            for (size_t b = 0; b < 8 && at + b < m.size(); ++b)
                m[at + b] = static_cast<char>(value >> (8 * b));
        } else {
            // Replace the n-th number (header counts included).
            std::vector<size_t> starts;
            for (size_t i = 0; i < m.size(); ++i) {
                if (std::isdigit(static_cast<unsigned char>(m[i])) &&
                    (i == 0 || std::isspace(static_cast<unsigned char>(
                                   m[i - 1]))))
                    starts.push_back(i);
            }
            const size_t at = starts[rng.next_below(starts.size())];
            const size_t end = m.find_first_not_of("0123456789", at);
            m.replace(at, end == std::string::npos ? end : end - at,
                      rng.next_below(2) ? std::to_string(value)
                                        : std::to_string(int64_t(value)));
        }
    }
    return m;
}

class LoaderFuzz : public ::testing::Test
{
  protected:
    static constexpr int kMutants = 400;

    LoaderFuzz()
    {
        graph::RmatParams rp;
        rp.num_nodes = 64;
        rp.num_edges = 256;
        rp.seed = 5;
        graph = graph::generate_rmat(rp);
    }

    /**
     * Save the corpus file with @p save, then run @p check (true when
     * the mutant loaded) over kMutants mutants of it.
     */
    template <typename Save, typename Check>
    void
    fuzz(const char *name, bool text, uint64_t seed, Save save,
         Check check)
    {
        const std::string path =
            ::testing::TempDir() + "fastgl_fuzz_" + name;
        ASSERT_TRUE(save(path));
        std::string clean;
        {
            std::ifstream in(path, std::ios::binary);
            clean.assign(std::istreambuf_iterator<char>(in), {});
        }
        ASSERT_FALSE(clean.empty());
        util::Rng rng(seed);
        int loaded = 0;
        for (int i = 0; i < kMutants; ++i) {
            const std::string m = mutate(clean, text, rng);
            std::ofstream(path, std::ios::binary | std::ios::trunc)
                .write(m.data(), static_cast<std::streamsize>(m.size()));
            loaded += check(path) ? 1 : 0;
        }
        // Flipped payload digits keep a file loadable; a corpus where
        // nothing ever loads would test only the error paths.
        EXPECT_GT(loaded, 0);
        EXPECT_LT(loaded, kMutants);
        std::remove(path.c_str());
    }

    graph::CsrGraph graph;
};

TEST_F(LoaderFuzz, GraphMutantsFailOrValidate)
{
    auto save = [&](const std::string &p) {
        return graph::save_graph(graph, p);
    };
    fuzz("graph.bin", false, 0xF022, save, [](const std::string &p) {
        graph::CsrGraph g;
        if (!graph::load_graph(g, p))
            return false;
        EXPECT_EQ(g.validate(), "");
        return true;
    });
}

TEST_F(LoaderFuzz, DatasetMutantsFailOrValidate)
{
    graph::Dataset ds;
    ds.id = graph::DatasetId::kProducts;
    ds.name = "fuzz";
    ds.graph = graph;
    ds.features = graph::FeatureStore(graph.num_nodes(), 8, 4, 7, false);
    for (graph::NodeId u = 0; u < 16; ++u)
        ds.train_nodes.push_back(u);
    ds.batch_size = 8;
    ds.scale = 0.5;
    auto save = [&](const std::string &p) {
        return graph::save_dataset(ds, p);
    };
    fuzz("dataset.bin", false, 0xDA7A, save, [](const std::string &p) {
        graph::Dataset out;
        if (!graph::load_dataset(out, p))
            return false;
        EXPECT_EQ(out.graph.validate(), "");
        EXPECT_EQ(out.features.num_nodes(), out.graph.num_nodes());
        EXPECT_GT(out.batch_size, 0);
        for (graph::NodeId u : out.train_nodes) {
            EXPECT_GE(u, 0);
            EXPECT_LT(u, out.graph.num_nodes());
        }
        return true;
    });
}

TEST_F(LoaderFuzz, PartitioningMutantsFailOrValidate)
{
    const graph::Partitioning parts = graph::partition_ldg(graph, 4);
    auto save = [&](const std::string &p) {
        return graph::save_partitioning(p, parts);
    };
    const size_t n = parts.part_of.size();
    fuzz("parts.txt", true, 0x9A27, save, [n](const std::string &p) {
        const graph::Partitioning got = graph::load_partitioning(p);
        if (got.part_of.empty())
            return false;
        EXPECT_EQ(got.part_of.size(), n);
        size_t members = 0;
        for (const auto &m : got.members)
            members += m.size();
        EXPECT_EQ(members, got.part_of.size());
        for (int32_t id : got.part_of) {
            EXPECT_GE(id, 0);
            EXPECT_LT(id, got.num_parts());
        }
        return true;
    });
}

TEST_F(LoaderFuzz, WarmupTraceMutantsFailOrValidate)
{
    match::WarmupTrace trace;
    util::Rng rng(3);
    for (graph::NodeId u = 0; u < graph.num_nodes(); ++u)
        trace.frequencies.push_back(
            static_cast<int64_t>(rng.next_below(1000)));
    auto save = [&](const std::string &p) {
        return match::save_warmup_trace(p, trace);
    };
    const size_t n = trace.frequencies.size();
    fuzz("warmup.txt", true, 0x3A2F, save, [n](const std::string &p) {
        const match::WarmupTrace got = match::load_warmup_trace(p);
        if (got.empty())
            return false;
        EXPECT_EQ(got.frequencies.size(), n); // one per node
        for (int64_t f : got.frequencies)
            EXPECT_GE(f, 0);
        return true;
    });
}

} // namespace
} // namespace fastgl
