/**
 * @file
 * Extension validation: Pipeline's overlapped epoch executor at one
 * thread per stage (widths 1,1,1) against the default widths and wider
 * sampler stages, on the same workload and seed. Modelled (simulated-GPU)
 * epoch results must be bit-identical at every width — two epochs per
 * width, digested over every EpochResult field and trainer 0's stage
 * times — and any divergence exits non-zero. The host seconds of a fresh
 * Pipeline's first epoch are archived next to them: they drop as the
 * sample / gather / compute stages overlap on a host with spare cores.
 *
 * Emits a single JSON object on stdout (tools/ci.sh archives it as
 * BENCH_async_overlap.json). Pass --smoke for a seconds-long run.
 */
#include <cstdio>

#include "epoch_digest.h"
#include "fastgl.h"
#include "harness.h"

namespace {

using namespace fastgl;
using reference::epoch_digest;
using reference::next_epoch_digest;

struct Widths
{
    const char *name;
    int samplers;
    int gatherers; ///< 0 = min(trainer GPUs, 4), the default.
    int computers;
};

/** Digest of two epochs of a fresh pipeline; @p epoch_s gets the first
 *  epoch's modelled seconds. */
uint64_t
two_epoch_digest(const graph::Dataset &ds, const core::PipelineOptions &opts,
                 double &epoch_s)
{
    core::Pipeline pipe(ds, opts);
    const core::EpochResult first = pipe.run_epoch();
    epoch_s = first.epoch_seconds;
    const uint64_t h = epoch_digest(first, pipe.last_epoch_stage_times());
    return util::fnv(h, next_epoch_digest(pipe));
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke = bench::parse_smoke(argc, argv);

    graph::ReplicaOptions ropts;
    ropts.materialize_features = false;
    ropts.size_factor = smoke ? 0.25 : 1.0;
    const graph::Dataset ds =
        graph::load_replica(graph::DatasetId::kProducts, ropts);

    // A heavy sampling stage (deep fanouts) is the regime where
    // overlapping stages pays off.
    core::PipelineOptions opts;
    opts.fw = core::framework_preset(core::Framework::kFastGL);
    opts.num_gpus = 4;
    opts.fanouts = {10, 15, 25};
    opts.max_batches = smoke ? 24 : 96;
    opts.reorder_window = 4;
    opts.seed = 2025;

    const Widths widths[] = {
        {"one_thread_per_stage", 1, 1, 1},
        {"default", 2, 0, 1},
        {"samplers_4", 4, 0, 1},
        {"samplers_8", 8, 0, 1},
    };
    const bench::Trials trials{1, smoke ? 3 : 7};

    util::JsonWriter w;
    w.begin_object();
    w.key("bench").string("async_overlap");
    w.key("smoke").boolean(smoke);
    w.key("dataset").string(ds.name);
    w.key("trainers").integer(opts.num_gpus);
    w.key("batches").integer(opts.max_batches);
    w.key("widths").begin_array();
    bool ok = true;
    uint64_t reference = 0;
    bench::Spread reference_s;
    for (const Widths &cfg : widths) {
        core::PipelineOptions run = opts;
        run.executor.sampler_threads = cfg.samplers;
        run.executor.gather_threads = cfg.gatherers;
        run.executor.compute_threads = cfg.computers;

        double epoch_s = 0.0;
        const uint64_t digest = two_epoch_digest(ds, run, epoch_s);
        const bench::Spread host = bench::time_trials(trials, [&] {
            core::Pipeline pipe(ds, run);
            pipe.run_epoch();
        });
        if (&cfg == &widths[0]) {
            reference = digest;
            reference_s = host;
        }
        const bool identical = digest == reference;
        ok &= identical;

        w.begin_object();
        w.key("executor").string(cfg.name);
        w.key("sampler_threads").integer(cfg.samplers);
        w.key("gather_threads").integer(cfg.gatherers);
        w.key("compute_threads").integer(cfg.computers);
        w.key("modelled_epoch_s").general(epoch_s);
        w.key("digest").hash(digest);
        bench::write_spread(w, "host_s", host);
        w.key("host_speedup")
            .fixed(bench::ratio(reference_s.median, host.median), 3);
        w.key("identical").boolean(identical);
        w.end_object();
    }
    w.end_array();
    w.key("ok").boolean(ok);
    w.end_object();
    if (!ok)
        std::fprintf(stderr, "FATAL: modelled epoch results diverged "
                             "across executor widths\n");
    return bench::finish(w, ok);
}
