#include "sample/neighbor_sampler.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"

namespace fastgl {
namespace sample {

NeighborSampler::NeighborSampler(const graph::CsrGraph &graph,
                                 NeighborSamplerOptions opts)
    : graph_(graph), opts_(std::move(opts)), rng_(opts_.seed), table_(1024)
{
    FASTGL_CHECK(!opts_.fanouts.empty(), "need at least one fanout");
    for (int fanout : opts_.fanouts)
        FASTGL_CHECK(fanout > 0, "fanouts must be positive");
}

SampledSubgraph
NeighborSampler::sample(std::span<const graph::NodeId> seeds,
                        uint64_t rng_seed)
{
    rng_ = util::Rng(rng_seed);
    return sample(seeds);
}

SampledSubgraph
NeighborSampler::sample(std::span<const graph::NodeId> seeds)
{
    FASTGL_CHECK(!seeds.empty(), "empty seed set");
    const int hops = num_hops();

    // Upper bound on instances for the hash-table capacity hint.
    size_t estimate = seeds.size();
    size_t frontier_estimate = seeds.size();
    for (int h = 0; h < hops; ++h) {
        frontier_estimate *=
            static_cast<size_t>(opts_.fanouts[hops - 1 - h]) + 1;
        estimate += frontier_estimate;
        // The frontier can never exceed the graph itself.
        frontier_estimate = std::min(
            frontier_estimate, static_cast<size_t>(graph_.num_nodes()));
    }
    table_.reset(estimate);

    SampledSubgraph sg;
    sg.num_seeds = static_cast<int64_t>(seeds.size());
    sg.blocks.resize(hops);

    // Insert seeds; local IDs [0, num_seeds) in seed order. Duplicate
    // seeds are tolerated (they share a local ID).
    std::vector<graph::NodeId> &nodes = sg.nodes;
    nodes.reserve(estimate / 4);
    for (graph::NodeId s : seeds) {
        if (table_.insert(s))
            nodes.push_back(s);
        ++sg.instances;
    }

    // Hop h expands the monotone frontier nodes[0 .. frontier_size); the
    // frontier equals all nodes inserted so far (self edges keep targets
    // inside the next frontier — see header). All staging buffers come
    // from the per-sampler arena: zero heap traffic in steady state.
    arena_.reset();
    pending_.assign(static_cast<size_t>(hops), PendingBlock{});

    // Stack scratch for without-replacement rejection sampling; larger
    // fanouts spill to the arena below.
    constexpr int kStackFanout = 64;
    graph::EdgeId chosen_stack[kStackFanout];
    // The CSR row this many frontier nodes ahead is prefetched while
    // the current target samples.
    constexpr size_t kRowsAhead = 4;

    for (int h = 0; h < hops; ++h) {
        const int fanout = opts_.fanouts[hops - 1 - h];
        graph::EdgeId *chosen =
            fanout <= kStackFanout
                ? chosen_stack
                : arena_.alloc_array<graph::EdgeId>(
                      static_cast<size_t>(fanout));
        const size_t frontier_size = nodes.size();
        PendingBlock &blk = pending_[static_cast<size_t>(h)];
        blk.counts = {arena_.alloc_array<graph::EdgeId>(frontier_size),
                      frontier_size};
        const size_t src_cap =
            frontier_size * (static_cast<size_t>(fanout) + 1);
        blk.src_globals = {arena_.alloc_array<graph::NodeId>(src_cap),
                           src_cap};
        blk.src_locals = {arena_.alloc_array<graph::NodeId>(src_cap),
                          src_cap};
        blk.num_sources = 0;

        for (size_t t = 0; t < frontier_size; ++t) {
            if (t + kRowsAhead < frontier_size)
                __builtin_prefetch(
                    graph_.neighbors(nodes[t + kRowsAhead]).data());
            const size_t first_src = blk.num_sources;
            const graph::NodeId u = nodes[t];
            const auto nbrs = graph_.neighbors(u);
            const graph::EdgeId deg =
                static_cast<graph::EdgeId>(nbrs.size());
            graph::EdgeId count = 0;

            if (opts_.replace && deg > 0) {
                // With replacement: exactly `fanout` independent draws.
                for (int k = 0; k < fanout; ++k) {
                    const graph::EdgeId idx = static_cast<graph::EdgeId>(
                        rng_.next_below(static_cast<uint64_t>(deg)));
                    blk.src_globals[blk.num_sources++] = nbrs[idx];
                    ++count;
                    ++sg.edges_examined;
                }
            } else if (deg <= fanout) {
                for (graph::NodeId v : nbrs) {
                    blk.src_globals[blk.num_sources++] = v;
                    ++count;
                }
                sg.edges_examined += deg;
            } else {
                // Uniform without replacement via rejection; fanout is
                // tiny so the linear duplicate scan is cheap.
                int picked = 0;
                while (picked < fanout) {
                    const graph::EdgeId idx = static_cast<graph::EdgeId>(
                        rng_.next_below(static_cast<uint64_t>(deg)));
                    ++sg.edges_examined;
                    bool dup = false;
                    for (int c = 0; c < picked; ++c) {
                        if (chosen[c] == idx) {
                            dup = true;
                            break;
                        }
                    }
                    if (dup)
                        continue;
                    chosen[picked++] = idx;
                    blk.src_globals[blk.num_sources++] = nbrs[idx];
                    ++count;
                }
            }

            if (opts_.add_self_loops) {
                blk.src_globals[blk.num_sources++] = u;
                ++count;
            }
            blk.counts[t] = count;

            // ID-map construction and translation, fused into the
            // sampling loop while this target's picks are cache-hot.
            // Inserts run in src_globals order and insert_translate
            // counts the lookup's walk too, so local IDs and probe
            // counts equal a whole-hop insert pass followed by a
            // translate pass. Inserting now cannot change what is
            // sampled: this hop's frontier is fixed at
            // nodes[0 .. frontier_size).
            for (size_t e = first_src; e < blk.num_sources; ++e) {
                const graph::NodeId v = blk.src_globals[e];
                const graph::NodeId local = table_.insert_translate(v);
                if (local == static_cast<graph::NodeId>(nodes.size()))
                    nodes.push_back(v);
                blk.src_locals[e] = local;
            }
        }

        // Every sampled endpoint is an instance except the synthetic self
        // loops, which the ID map never sees separately (the target is
        // already mapped).
        sg.instances += static_cast<int64_t>(blk.num_sources) -
                        (opts_.add_self_loops
                             ? static_cast<int64_t>(frontier_size)
                             : 0);
    }

    // Finalise the CSR blocks from the translated local IDs.
    for (int h = 0; h < hops; ++h) {
        PendingBlock &blk = pending_[static_cast<size_t>(h)];
        LayerBlock &out = sg.blocks[h];
        const size_t num_targets = blk.counts.size();
        out.targets.resize(num_targets);
        std::iota(out.targets.begin(), out.targets.end(), 0);
        out.indptr.resize(num_targets + 1);
        out.indptr[0] = 0;
        for (size_t t = 0; t < num_targets; ++t)
            out.indptr[t + 1] = out.indptr[t] + blk.counts[t];
        out.sources.assign(blk.src_locals.begin(),
                           blk.src_locals.begin() +
                               static_cast<ptrdiff_t>(blk.num_sources));
    }

    sg.id_map.instances = sg.instances;
    sg.id_map.uniques = table_.size();
    sg.id_map.probes = static_cast<int64_t>(table_.probes());
    return sg;
}

} // namespace sample
} // namespace fastgl
