#include "sample/layer_sampler.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/logging.h"

namespace fastgl {
namespace sample {

LayerSampler::LayerSampler(const graph::CsrGraph &graph,
                           LayerSamplerOptions opts)
    : graph_(graph), opts_(std::move(opts)), rng_(opts_.seed), table_(1024)
{
    FASTGL_CHECK(!opts_.layer_sizes.empty(), "need at least one layer");
    for (int64_t size : opts_.layer_sizes)
        FASTGL_CHECK(size > 0, "layer sizes must be positive");
}

SampledSubgraph
LayerSampler::sample(std::span<const graph::NodeId> seeds)
{
    FASTGL_CHECK(!seeds.empty(), "empty seed set");
    const int hops = num_hops();

    size_t estimate = seeds.size();
    for (int64_t size : opts_.layer_sizes)
        estimate += static_cast<size_t>(size) * 2;
    table_.reset(estimate);

    SampledSubgraph sg;
    sg.num_seeds = int64_t(seeds.size());
    sg.blocks.resize(static_cast<size_t>(hops));

    for (graph::NodeId s : seeds) {
        if (table_.insert(s))
            sg.nodes.push_back(s);
        ++sg.instances;
    }

    // Weight accumulator is per-call on purpose (see header: RNG draw
    // order is pinned to this map's iteration order); everything else
    // reuses member scratch.
    std::unordered_map<graph::NodeId, double> weight;
    pending_.resize(static_cast<size_t>(hops));
    for (PendingBlock &blk : pending_) {
        blk.counts.clear();
        blk.src_globals.clear();
    }
    chosen_.resize(static_cast<size_t>(graph_.num_nodes()));

    for (int h = 0; h < hops; ++h) {
        const int64_t budget =
            opts_.layer_sizes[static_cast<size_t>(hops - 1 - h)];
        const size_t frontier_size = sg.nodes.size();

        // Candidate importance q(v) = number of frontier nodes that list
        // v as a neighbour (LADIES' row-normalised squared-weight proxy).
        weight.clear();
        for (size_t t = 0; t < frontier_size; ++t) {
            for (graph::NodeId v : graph_.neighbors(sg.nodes[t])) {
                ++sg.edges_examined;
                weight[v] += 1.0;
            }
        }

        // Weighted sampling without replacement (Efraimidis-Spirakis):
        // key = u^(1/w); keep the `budget` largest keys.
        keyed_.clear();
        keyed_.reserve(weight.size());
        for (const auto &[node, w] : weight) {
            const double u = std::max(rng_.next_double(), 1e-300);
            keyed_.emplace_back(std::pow(u, 1.0 / w), node);
        }
        const size_t keep = std::min(keyed_.size(),
                                     static_cast<size_t>(budget));
        std::partial_sort(keyed_.begin(), keyed_.begin() + keep,
                          keyed_.end(), std::greater<>());

        for (size_t i = 0; i < keep; ++i)
            chosen_.set(static_cast<size_t>(keyed_[i].second));

        // Block edges: frontier target u keeps neighbours inside the
        // chosen layer, plus a self edge (keeps the frontier monotone).
        PendingBlock &blk = pending_[static_cast<size_t>(h)];
        blk.counts.reserve(frontier_size);
        for (size_t t = 0; t < frontier_size; ++t) {
            const graph::NodeId gu = sg.nodes[t];
            graph::EdgeId count = 0;
            for (graph::NodeId v : graph_.neighbors(gu)) {
                if (chosen_.test(static_cast<size_t>(v))) {
                    blk.src_globals.push_back(v);
                    ++count;
                    ++sg.instances;
                }
            }
            blk.src_globals.push_back(gu);
            ++count;
            blk.counts.push_back(count);
        }

        // Touched-reset: unset exactly the bits this hop set, restoring
        // the all-zero invariant without an O(num_nodes) clear.
        for (size_t i = 0; i < keep; ++i)
            chosen_.unset(static_cast<size_t>(keyed_[i].second));

        // ID-map construction and translation for the new layer's
        // nodes, one fused walk per source (same IDs and probe count as
        // an insert pass followed by a lookup pass).
        std::vector<graph::NodeId> &sources =
            sg.blocks[static_cast<size_t>(h)].sources;
        sources.resize(blk.src_globals.size());
        for (size_t e = 0; e < blk.src_globals.size(); ++e) {
            const graph::NodeId v = blk.src_globals[e];
            sources[e] = table_.insert_translate(v);
            if (sources[e] == static_cast<graph::NodeId>(sg.nodes.size()))
                sg.nodes.push_back(v);
        }
    }

    for (int h = 0; h < hops; ++h) {
        PendingBlock &blk = pending_[static_cast<size_t>(h)];
        LayerBlock &out = sg.blocks[static_cast<size_t>(h)];
        const size_t num_targets = blk.counts.size();
        out.targets.resize(num_targets);
        out.indptr.resize(num_targets + 1);
        out.indptr[0] = 0;
        for (size_t t = 0; t < num_targets; ++t) {
            out.targets[t] = int64_t(t);
            out.indptr[t + 1] = out.indptr[t] + blk.counts[t];
        }
    }

    sg.id_map.instances = sg.instances;
    sg.id_map.uniques = table_.size();
    sg.id_map.probes = static_cast<int64_t>(table_.probes());
    return sg;
}

} // namespace sample
} // namespace fastgl
