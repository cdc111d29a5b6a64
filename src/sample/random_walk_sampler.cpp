#include "sample/random_walk_sampler.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/logging.h"

namespace fastgl {
namespace sample {

RandomWalkSampler::RandomWalkSampler(const graph::CsrGraph &graph,
                                     RandomWalkOptions opts)
    : graph_(graph), opts_(std::move(opts)), rng_(opts_.seed), table_(1024)
{
    FASTGL_CHECK(opts_.walk_length > 0, "walk length must be positive");
    FASTGL_CHECK(opts_.num_walks > 0, "walk count must be positive");
    FASTGL_CHECK(opts_.top_k > 0, "top_k must be positive");
    // Flat visit-count array, zeroed once; walks only ever touch the
    // entries they visit, and those are re-zeroed per seed via the
    // touched list, so the invariant "all zero between seeds" holds
    // without per-call clears.
    visit_counts_ = arena_.alloc_zeroed<int32_t>(
        static_cast<size_t>(graph_.num_nodes()));
    arena_.set_watermark();
}

SampledSubgraph
RandomWalkSampler::sample(std::span<const graph::NodeId> seeds,
                          uint64_t rng_seed)
{
    rng_ = util::Rng(rng_seed);
    return sample(seeds);
}

SampledSubgraph
RandomWalkSampler::sample(std::span<const graph::NodeId> seeds)
{
    FASTGL_CHECK(!seeds.empty(), "empty seed set");
    const size_t estimate =
        seeds.size() * (1 + static_cast<size_t>(opts_.top_k));
    table_.reset(estimate);

    SampledSubgraph sg;
    sg.num_seeds = static_cast<int64_t>(seeds.size());
    sg.blocks.resize(1);

    for (graph::NodeId s : seeds) {
        if (table_.insert(s))
            sg.nodes.push_back(s);
        ++sg.instances;
    }

    // Per-call scratch from the arena (reclaimed wholesale by reset):
    // a seed's walks visit at most num_walks * walk_length distinct
    // nodes, and the block emits at most top_k + 1 sources per seed.
    arena_.reset();
    const size_t visit_cap = static_cast<size_t>(opts_.num_walks) *
                             static_cast<size_t>(opts_.walk_length);
    graph::NodeId *touched = arena_.alloc_array<graph::NodeId>(visit_cap);
    auto *ranked =
        arena_.alloc_array<std::pair<int, graph::NodeId>>(visit_cap);
    const size_t src_cap =
        seeds.size() * (static_cast<size_t>(opts_.top_k) + 1);
    graph::NodeId *src_globals =
        arena_.alloc_array<graph::NodeId>(src_cap);
    size_t num_src = 0;
    graph::EdgeId *counts =
        arena_.alloc_array<graph::EdgeId>(seeds.size());
    size_t num_counts = 0;

    LayerBlock &blk = sg.blocks[0];

    for (graph::NodeId s : seeds) {
        size_t num_touched = 0;
        for (int w = 0; w < opts_.num_walks; ++w) {
            graph::NodeId cur = s;
            for (int step = 0; step < opts_.walk_length; ++step) {
                const auto nbrs = graph_.neighbors(cur);
                if (nbrs.empty())
                    break;
                cur = nbrs[rng_.next_below(nbrs.size())];
                ++sg.edges_examined;
                if (cur != s) {
                    int32_t &visits =
                        visit_counts_[static_cast<size_t>(cur)];
                    if (visits++ == 0)
                        touched[num_touched++] = cur;
                }
            }
        }
        for (size_t t = 0; t < num_touched; ++t) {
            ranked[t] = {
                visit_counts_[static_cast<size_t>(touched[t])],
                touched[t]};
        }
        // Sort by (count desc, hashed id) — hashing the tie-break keeps
        // the ranking deterministic without funnelling every seed to
        // the same low-ID nodes when visit counts tie. The comparator
        // is a strict total order (the mix is a bijection), so the
        // result is independent of the pre-sort order and matches the
        // former unordered_map-based implementation bit for bit.
        std::sort(ranked, ranked + num_touched,
                  [](const auto &a, const auto &b) {
                      if (a.first != b.first)
                          return a.first > b.first;
                      auto mix = [](graph::NodeId id) {
                          uint64_t x = static_cast<uint64_t>(id);
                          x ^= x >> 33;
                          x *= 0xFF51AFD7ED558CCDULL;
                          x ^= x >> 33;
                          return x;
                      };
                      return mix(a.second) < mix(b.second);
                  });
        graph::EdgeId count = 0;
        const size_t keep =
            std::min(num_touched, static_cast<size_t>(opts_.top_k));
        for (size_t i = 0; i < keep; ++i) {
            src_globals[num_src++] = ranked[i].second;
            ++count;
            ++sg.instances;
        }
        // Self edge so an isolated seed still aggregates itself.
        src_globals[num_src++] = s;
        ++count;
        counts[num_counts++] = count;

        // Re-zero only the entries this seed touched.
        for (size_t t = 0; t < num_touched; ++t)
            visit_counts_[static_cast<size_t>(touched[t])] = 0;
    }

    // ID-map construction and translation, one fused walk per source
    // (same IDs and probe count as an insert pass then a lookup pass).
    blk.sources.resize(num_src);
    for (size_t e = 0; e < num_src; ++e) {
        blk.sources[e] = table_.insert_translate(src_globals[e]);
        if (blk.sources[e] == static_cast<graph::NodeId>(sg.nodes.size()))
            sg.nodes.push_back(src_globals[e]);
    }

    const size_t num_targets = num_counts;
    blk.targets.resize(num_targets);
    std::iota(blk.targets.begin(), blk.targets.end(), 0);
    blk.indptr.resize(num_targets + 1);
    blk.indptr[0] = 0;
    for (size_t t = 0; t < num_targets; ++t)
        blk.indptr[t + 1] = blk.indptr[t] + counts[t];

    sg.id_map.instances = sg.instances;
    sg.id_map.uniques = table_.size();
    sg.id_map.probes = static_cast<int64_t>(table_.probes());
    return sg;
}

} // namespace sample
} // namespace fastgl
