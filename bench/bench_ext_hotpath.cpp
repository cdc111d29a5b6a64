/**
 * @file
 * Hot-path overhaul validation: before/after throughput of the adaptive
 * set intersections, the parallel match-degree matrix, the
 * arena-backed samplers and the radix NodeSet build. "Before" is
 * replicated in-bench from the pre-overhaul implementations (sequential
 * merge-only intersections, per-call heap scratch, unordered_map visit
 * counts, std::sort + std::unique node sets), and every replica
 * is checked to produce bit-identical output to the live code first —
 * the speedups below compare equal work.
 *
 * Output is a single JSON object on stdout so CI can archive it
 * (tools/ci.sh writes BENCH_hotpath.json). Every timing is the median
 * of repeated trials that alternate which side runs first (bench/
 * harness.h), with its interquartile range next to it; the
 * noise_floor_control object times one merge against itself, so its
 * ratio's distance from 1.0 is the noise floor for the speedups. Pass
 * --smoke for a seconds-long run with small sizes.
 */
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/generators.h"
#include "harness.h"
#include "legacy_reference.h"
#include "match/match_degree.h"
#include "sample/neighbor_sampler.h"
#include "sample/random_walk_sampler.h"
#include "util/fingerprint.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace fastgl;
using reference::hash_subgraph;

// ------------------------------------------------------------------
// Legacy replicas (the pre-overhaul hot paths, verbatim algorithms).
// ------------------------------------------------------------------

/**
 * Pre-overhaul Fused-Map: unconditional CAS per probe and a full sweep
 * of both arrays on every reset (no touched-slot tracking, no
 * test-before-CAS fast path).
 */
class LegacyFusedHashTable
{
  public:
    explicit LegacyFusedHashTable(size_t capacity_hint)
    {
        reset(capacity_hint);
    }

    void
    reset(size_t capacity_hint)
    {
        size_t slots = 16;
        while (slots < capacity_hint * 2 + 1)
            slots <<= 1;
        if (slots != keys_.size()) {
            keys_ = std::vector<std::atomic<graph::NodeId>>(slots);
            values_ = std::vector<std::atomic<int64_t>>(slots);
            mask_ = slots - 1;
        }
        for (auto &key : keys_)
            key.store(-1, std::memory_order_relaxed);
        for (auto &value : values_)
            value.store(0, std::memory_order_relaxed);
        next_local_.store(0, std::memory_order_relaxed);
        probes_.store(0, std::memory_order_relaxed);
    }

    bool
    insert(graph::NodeId global)
    {
        size_t index = slot_for(global);
        uint64_t local_probes = 0;
        for (;;) {
            ++local_probes;
            graph::NodeId expected = -1;
            std::atomic<graph::NodeId> &slot = keys_[index];
            if (slot.compare_exchange_strong(
                    expected, global, std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                const int64_t local = next_local_.fetch_add(
                    1, std::memory_order_acq_rel);
                values_[index].store(local, std::memory_order_release);
                probes_.fetch_add(local_probes,
                                  std::memory_order_relaxed);
                return true;
            }
            if (expected == global) {
                probes_.fetch_add(local_probes,
                                  std::memory_order_relaxed);
                return false;
            }
            index = (index + 1) & mask_;
        }
    }

    graph::NodeId
    lookup(graph::NodeId global) const
    {
        size_t index = slot_for(global);
        uint64_t local_probes = 0;
        for (;;) {
            ++local_probes;
            const graph::NodeId key =
                keys_[index].load(std::memory_order_acquire);
            if (key == global) {
                probes_.fetch_add(local_probes,
                                  std::memory_order_relaxed);
                return values_[index].load(std::memory_order_acquire);
            }
            if (key == -1) {
                probes_.fetch_add(local_probes,
                                  std::memory_order_relaxed);
                return graph::kInvalidNode;
            }
            index = (index + 1) & mask_;
        }
    }

    int64_t
    size() const
    {
        return next_local_.load(std::memory_order_acquire);
    }

    uint64_t
    probes() const
    {
        return probes_.load(std::memory_order_relaxed);
    }

  private:
    size_t
    slot_for(graph::NodeId global) const
    {
        uint64_t x = static_cast<uint64_t>(global);
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
        x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
        return static_cast<size_t>(x ^ (x >> 31)) & mask_;
    }

    std::vector<std::atomic<graph::NodeId>> keys_;
    std::vector<std::atomic<int64_t>> values_;
    std::atomic<int64_t> next_local_{0};
    mutable std::atomic<uint64_t> probes_{0};
    size_t mask_ = 0;
};

/** Pre-overhaul matrix: sequential, merge-join for every pair. */
std::vector<std::vector<double>>
legacy_match_degree_matrix(const std::vector<match::NodeSet> &sets)
{
    const size_t n = sets.size();
    std::vector<std::vector<double>> m(n, std::vector<double>(n, 0.0));
    for (size_t i = 0; i < n; ++i) {
        m[i][i] = 1.0;
        for (size_t j = i + 1; j < n; ++j) {
            const int64_t overlap = match::detail::intersect_merge(
                sets[i].sorted(), sets[j].sorted());
            const int64_t denom =
                std::min(sets[i].size(), sets[j].size());
            const double d =
                denom > 0 ? double(overlap) / double(denom) : 0.0;
            m[i][j] = d;
            m[j][i] = d;
        }
    }
    return m;
}

/**
 * Pre-overhaul k-hop sampler: same algorithm and RNG draw order as
 * sample::NeighborSampler, but with the original per-call heap scratch
 * (fresh pending vectors each sample, push_back growth).
 */
class LegacyNeighborSampler
{
  public:
    LegacyNeighborSampler(const graph::CsrGraph &graph,
                          sample::NeighborSamplerOptions opts)
        : graph_(graph), opts_(std::move(opts)), rng_(opts_.seed),
          table_(1024)
    {
    }

    sample::SampledSubgraph
    sample(std::span<const graph::NodeId> seeds, uint64_t rng_seed)
    {
        rng_ = util::Rng(rng_seed);
        const int hops = static_cast<int>(opts_.fanouts.size());

        size_t estimate = seeds.size();
        size_t frontier_estimate = seeds.size();
        for (int h = 0; h < hops; ++h) {
            frontier_estimate *=
                static_cast<size_t>(opts_.fanouts[hops - 1 - h]) + 1;
            estimate += frontier_estimate;
            frontier_estimate =
                std::min(frontier_estimate,
                         static_cast<size_t>(graph_.num_nodes()));
        }
        table_.reset(estimate);

        sample::SampledSubgraph sg;
        sg.num_seeds = static_cast<int64_t>(seeds.size());
        sg.blocks.resize(static_cast<size_t>(hops));
        std::vector<graph::NodeId> &nodes = sg.nodes;
        nodes.reserve(estimate / 4);
        for (graph::NodeId s : seeds) {
            if (table_.insert(s))
                nodes.push_back(s);
            ++sg.instances;
        }

        struct PendingBlock
        {
            std::vector<graph::EdgeId> counts;
            std::vector<graph::NodeId> src_globals;
        };
        std::vector<PendingBlock> pending(
            static_cast<size_t>(hops));
        graph::EdgeId chosen[64];

        for (int h = 0; h < hops; ++h) {
            const int fanout = opts_.fanouts[hops - 1 - h];
            const size_t frontier_size = nodes.size();
            PendingBlock &blk = pending[static_cast<size_t>(h)];
            blk.counts.reserve(frontier_size);
            blk.src_globals.reserve(
                frontier_size * (static_cast<size_t>(fanout) + 1));

            for (size_t t = 0; t < frontier_size; ++t) {
                const graph::NodeId u = nodes[t];
                const auto nbrs = graph_.neighbors(u);
                const graph::EdgeId deg =
                    static_cast<graph::EdgeId>(nbrs.size());
                graph::EdgeId count = 0;
                if (opts_.replace && deg > 0) {
                    for (int k = 0; k < fanout; ++k) {
                        const auto idx =
                            static_cast<graph::EdgeId>(rng_.next_below(
                                static_cast<uint64_t>(deg)));
                        blk.src_globals.push_back(nbrs[idx]);
                        ++count;
                        ++sg.edges_examined;
                    }
                } else if (deg <= fanout) {
                    for (graph::NodeId v : nbrs) {
                        blk.src_globals.push_back(v);
                        ++count;
                    }
                    sg.edges_examined += deg;
                } else {
                    int picked = 0;
                    while (picked < fanout) {
                        const auto idx =
                            static_cast<graph::EdgeId>(rng_.next_below(
                                static_cast<uint64_t>(deg)));
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
                        blk.src_globals.push_back(nbrs[idx]);
                        ++count;
                    }
                }
                if (opts_.add_self_loops) {
                    blk.src_globals.push_back(u);
                    ++count;
                }
                blk.counts.push_back(count);
            }

            for (graph::NodeId v : blk.src_globals) {
                if (table_.insert(v))
                    nodes.push_back(v);
            }
            sg.instances +=
                static_cast<int64_t>(blk.src_globals.size()) -
                (opts_.add_self_loops
                     ? static_cast<int64_t>(frontier_size)
                     : 0);
        }

        for (int h = 0; h < hops; ++h) {
            PendingBlock &blk = pending[static_cast<size_t>(h)];
            sample::LayerBlock &out = sg.blocks[static_cast<size_t>(h)];
            const size_t num_targets = blk.counts.size();
            out.targets.resize(num_targets);
            std::iota(out.targets.begin(), out.targets.end(), 0);
            out.indptr.resize(num_targets + 1);
            out.indptr[0] = 0;
            for (size_t t = 0; t < num_targets; ++t)
                out.indptr[t + 1] = out.indptr[t] + blk.counts[t];
            out.sources.resize(blk.src_globals.size());
            for (size_t e = 0; e < blk.src_globals.size(); ++e) {
                const graph::NodeId local =
                    table_.lookup(blk.src_globals[e]);
                FASTGL_CHECK(local != graph::kInvalidNode,
                             "sampled node missing from ID map");
                out.sources[e] = local;
            }
        }

        sg.id_map.instances = sg.instances;
        sg.id_map.uniques = table_.size();
        sg.id_map.probes = static_cast<int64_t>(table_.probes());
        return sg;
    }

  private:
    const graph::CsrGraph &graph_;
    sample::NeighborSamplerOptions opts_;
    util::Rng rng_;
    LegacyFusedHashTable table_;
};

/**
 * Pre-overhaul random-walk sampler: unordered_map visit counts rebuilt
 * per seed, per-call heap vectors. Same RNG order and tie-break mix.
 */
class LegacyRandomWalkSampler
{
  public:
    LegacyRandomWalkSampler(const graph::CsrGraph &graph,
                            sample::RandomWalkOptions opts)
        : graph_(graph), opts_(std::move(opts)), rng_(opts_.seed),
          table_(1024)
    {
    }

    sample::SampledSubgraph
    sample(std::span<const graph::NodeId> seeds, uint64_t rng_seed)
    {
        rng_ = util::Rng(rng_seed);
        const size_t estimate =
            seeds.size() * (1 + static_cast<size_t>(opts_.top_k));
        table_.reset(estimate);

        sample::SampledSubgraph sg;
        sg.num_seeds = static_cast<int64_t>(seeds.size());
        sg.blocks.resize(1);
        for (graph::NodeId s : seeds) {
            if (table_.insert(s))
                sg.nodes.push_back(s);
            ++sg.instances;
        }

        sample::LayerBlock &blk = sg.blocks[0];
        std::vector<graph::NodeId> src_globals;
        std::vector<graph::EdgeId> counts;
        counts.reserve(seeds.size());
        std::unordered_map<graph::NodeId, int> visits;
        std::vector<std::pair<int, graph::NodeId>> ranked;

        for (graph::NodeId s : seeds) {
            visits.clear();
            for (int w = 0; w < opts_.num_walks; ++w) {
                graph::NodeId cur = s;
                for (int step = 0; step < opts_.walk_length; ++step) {
                    const auto nbrs = graph_.neighbors(cur);
                    if (nbrs.empty())
                        break;
                    cur = nbrs[rng_.next_below(nbrs.size())];
                    ++sg.edges_examined;
                    if (cur != s)
                        ++visits[cur];
                }
            }
            ranked.clear();
            for (const auto &[node, count] : visits)
                ranked.emplace_back(count, node);
            std::sort(ranked.begin(), ranked.end(),
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
            const size_t keep = std::min(
                ranked.size(), static_cast<size_t>(opts_.top_k));
            for (size_t i = 0; i < keep; ++i) {
                src_globals.push_back(ranked[i].second);
                ++count;
                ++sg.instances;
            }
            src_globals.push_back(s);
            ++count;
            counts.push_back(count);
        }

        for (graph::NodeId v : src_globals) {
            if (table_.insert(v))
                sg.nodes.push_back(v);
        }
        const size_t num_targets = counts.size();
        blk.targets.resize(num_targets);
        std::iota(blk.targets.begin(), blk.targets.end(), 0);
        blk.indptr.resize(num_targets + 1);
        blk.indptr[0] = 0;
        for (size_t t = 0; t < num_targets; ++t)
            blk.indptr[t + 1] = blk.indptr[t] + counts[t];
        blk.sources.resize(src_globals.size());
        for (size_t e = 0; e < src_globals.size(); ++e) {
            blk.sources[e] = table_.lookup(src_globals[e]);
            FASTGL_CHECK(blk.sources[e] != graph::kInvalidNode,
                         "walk node missing from ID map");
        }

        sg.id_map.instances = sg.instances;
        sg.id_map.uniques = table_.size();
        sg.id_map.probes = static_cast<int64_t>(table_.probes());
        return sg;
    }

  private:
    const graph::CsrGraph &graph_;
    sample::RandomWalkOptions opts_;
    util::Rng rng_;
    LegacyFusedHashTable table_;
};

// ------------------------------------------------------------------
// Benchmark sections.
// ------------------------------------------------------------------

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

/**
 * Time @p legacy against @p live, each sampling the batch-seed sequence
 * first_seed, first_seed + 1, ... for @p t.trials trials of
 * @p per_trial batches, and witness their digests over one pass.
 */
template <typename Legacy, typename Live>
void
write_sampler_ab(util::JsonWriter &w, bench::Witness &witness,
                 bench::Trials t, int per_trial,
                 const std::vector<graph::NodeId> &seeds,
                 uint64_t first_seed, Legacy &legacy, Live &live)
{
    uint64_t legacy_hash = 0, live_hash = 0;
    auto pass = [&](auto &sampler, uint64_t &h) {
        h = util::kFnvOffset;
        for (int i = 0; i < per_trial; ++i)
            h = util::fnv(h, hash_subgraph(sampler.sample(
                                 seeds, first_seed + uint64_t(i))));
    };
    const auto [legacy_s, live_s] =
        bench::time_ab(t, [&] { pass(legacy, legacy_hash); },
                       [&] { pass(live, live_hash); });
    w.begin_object();
    w.key("batches").integer(per_trial);
    bench::write_spread(w, "legacy_s", legacy_s);
    bench::write_spread(w, "hotpath_s", live_s);
    w.key("legacy_batches_per_s")
        .fixed(bench::ratio(per_trial, legacy_s.median), 2);
    w.key("hotpath_batches_per_s")
        .fixed(bench::ratio(per_trial, live_s.median), 2);
    w.key("speedup").fixed(bench::ratio(legacy_s.median, live_s.median),
                           3);
    w.key("identical").boolean(witness.check(legacy_hash, live_hash));
    w.end_object();
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke = bench::parse_smoke(argc, argv);
    const bench::Trials trials{1, smoke ? 7 : 15};
    bench::Witness witness;
    util::JsonWriter w;
    w.begin_object();
    w.key("bench").string("hotpath");
    w.key("smoke").boolean(smoke);

    // ---- adaptive intersection kernels ----------------------------
    struct Case
    {
        const char *name;
        size_t size_a, size_b;
        uint64_t universe;
    };
    const Case cases[] = {
        {"skew_16x", 250, 4000, 20000},
        {"skew_128x", 64, 8192, 40000},
        {"tiny_vs_huge", 8, 32768, 120000},
    };
    const int reps = smoke ? 20 : 400;
    util::Rng rng(42);
    {
        // Noise-floor control: both sides run the same merge on one
        // balanced pair, so the true ratio is 1.0 and the measured one
        // shows how far this harness's ratios drift on equal work.
        // Correctness of the merge is checked by the intersection rows
        // and tests, so the control carries no witness.
        const auto a = random_sorted_set(rng, 4000, 20000);
        const auto b = random_sorted_set(rng, 4000, 20000);
        auto side = [&] {
            for (int r = 0; r < reps; ++r)
                match::detail::intersect_merge(a, b);
        };
        const auto [a_s, b_s] = bench::time_ab(trials, side, side);
        w.key("noise_floor_control").begin_object();
        w.key("case").string("balanced");
        w.key("size_a").integer(a.size());
        w.key("size_b").integer(b.size());
        w.key("reps").integer(reps);
        bench::write_spread(w, "merge_a_s", a_s);
        bench::write_spread(w, "merge_b_s", b_s);
        w.key("expected_ratio").fixed(1.0, 3);
        w.key("ratio").fixed(bench::ratio(a_s.median, b_s.median), 3);
        w.end_object();
    }
    w.key("intersection").begin_array();
    {
        for (const Case &c : cases) {
            const auto a = random_sorted_set(rng, c.size_a, c.universe);
            const auto b = random_sorted_set(rng, c.size_b, c.universe);
            int64_t merge_sum = 0, adaptive_sum = 0;
            const auto [merge_s, adaptive_s] = bench::time_ab(
                trials,
                [&] {
                    for (int r = 0; r < reps; ++r)
                        merge_sum += match::detail::intersect_merge(a, b);
                },
                [&] {
                    for (int r = 0; r < reps; ++r)
                        adaptive_sum += match::intersect_sorted(a, b);
                });
            w.begin_object();
            w.key("case").string(c.name);
            w.key("size_a").integer(c.size_a);
            w.key("size_b").integer(c.size_b);
            w.key("reps").integer(reps);
            bench::write_spread(w, "merge_s", merge_s);
            bench::write_spread(w, "adaptive_s", adaptive_s);
            w.key("speedup").fixed(
                bench::ratio(merge_s.median, adaptive_s.median), 3);
            w.key("counts_match")
                .boolean(witness.check(merge_sum == adaptive_sum));
            w.end_object();
        }
    }
    w.end_array();

    // ---- match-degree matrix --------------------------------------
    const size_t num_sets = smoke ? 16 : 96;
    std::vector<match::NodeSet> sets;
    {
        util::Rng rng(123);
        for (size_t i = 0; i < num_sets; ++i) {
            std::vector<graph::NodeId> v;
            const uint64_t sz = 400 + rng.next_below(smoke ? 400 : 2400);
            for (uint64_t k = 0; k < sz; ++k)
                v.push_back(
                    static_cast<graph::NodeId>(rng.next_below(16384)));
            sets.emplace_back(v);
        }
    }
    const bench::Trials matrix_trials{1, smoke ? 5 : 9};
    std::vector<std::vector<double>> legacy_m, seq_m;
    const auto [legacy_matrix_s, seq_matrix_s] = bench::time_ab(
        matrix_trials, [&] { legacy_m = legacy_match_degree_matrix(sets); },
        [&] { seq_m = match::match_degree_matrix(sets); });
    w.key("match_degree_matrix").begin_object();
    w.key("num_sets").integer(num_sets);
    bench::write_spread(w, "legacy_merge_seq_s", legacy_matrix_s);
    bench::write_spread(w, "adaptive_seq_s", seq_matrix_s);
    w.key("adaptive_seq_speedup")
        .fixed(bench::ratio(legacy_matrix_s.median, seq_matrix_s.median),
               3);
    w.key("seq_identical").boolean(witness.check(legacy_m == seq_m));
    w.key("parallel").begin_array();
    for (size_t threads : {1, 2, 4, 8}) {
        util::ThreadPool pool(threads);
        std::vector<std::vector<double>> par_m;
        const bench::Spread s = bench::time_trials(
            matrix_trials,
            [&] { par_m = match::match_degree_matrix(sets, pool); });
        w.begin_object();
        w.key("threads").integer(threads);
        bench::write_spread(w, "seconds", s);
        w.key("speedup_vs_legacy")
            .fixed(bench::ratio(legacy_matrix_s.median, s.median), 3);
        w.key("identical").boolean(witness.check(par_m == legacy_m));
        w.end_object();
    }
    w.end_array();
    w.end_object();

    // ---- samplers -------------------------------------------------
    graph::RmatParams rp;
    rp.num_nodes = smoke ? (1 << 12) : (1 << 15);
    rp.num_edges = smoke ? (1 << 16) : (1 << 19);
    rp.seed = 7;
    const graph::CsrGraph g = graph::generate_rmat(rp);

    std::vector<graph::NodeId> seeds;
    {
        util::Rng rng(99);
        for (int i = 0; i < 1024; ++i)
            seeds.push_back(static_cast<graph::NodeId>(
                rng.next_below(static_cast<uint64_t>(g.num_nodes()))));
    }
    const bench::Trials sampler_trials{1, smoke ? 5 : 9};
    const int per_trial = smoke ? 4 : 8;

    sample::NeighborSamplerOptions nopts;
    nopts.fanouts = {5, 10, 15};
    LegacyNeighborSampler legacy_khop(g, nopts);
    sample::NeighborSampler khop(g, nopts);
    w.key("neighbor_sampler");
    write_sampler_ab(w, witness, sampler_trials, per_trial, seeds, 1000,
                     legacy_khop, khop);

    sample::RandomWalkOptions wopts;
    LegacyRandomWalkSampler legacy_walk(g, wopts);
    sample::RandomWalkSampler walk(g, wopts);
    w.key("random_walk_sampler");
    write_sampler_ab(w, witness, sampler_trials, per_trial, seeds, 2000,
                     legacy_walk, walk);

    // ---- NodeSet build --------------------------------------------
    // Sampled batches' node lists (first-seen order) through the
    // pre-radix std::sort + std::unique build and the live NodeSet.
    std::vector<std::vector<graph::NodeId>> node_lists;
    for (int i = 0; i < per_trial; ++i)
        node_lists.push_back(khop.sample(seeds, 3000 + uint64_t(i)).nodes);
    std::vector<std::vector<graph::NodeId>> legacy_sets, live_sets;
    const auto [legacy_build_s, live_build_s] = bench::time_ab(
        trials,
        [&] {
            legacy_sets.clear();
            for (const auto &nodes : node_lists) {
                std::vector<graph::NodeId> v = nodes;
                std::sort(v.begin(), v.end());
                v.erase(std::unique(v.begin(), v.end()), v.end());
                legacy_sets.push_back(std::move(v));
            }
        },
        [&] {
            live_sets.clear();
            for (const auto &nodes : node_lists)
                live_sets.push_back(match::NodeSet(nodes).sorted());
        });
    w.key("node_set_build").begin_object();
    w.key("sets").integer(node_lists.size());
    w.key("nodes_per_set").integer(node_lists[0].size());
    bench::write_spread(w, "legacy_s", legacy_build_s);
    bench::write_spread(w, "hotpath_s", live_build_s);
    w.key("speedup").fixed(
        bench::ratio(legacy_build_s.median, live_build_s.median), 3);
    w.key("identical").boolean(witness.check(legacy_sets == live_sets));
    w.end_object();

    w.end_object();
    return witness.finish(w);
}
