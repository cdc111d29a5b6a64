/**
 * @file
 * Extension validation: the sequential Pipeline vs the overlapped
 * AsyncPipeline executor on the SAME workload and seed. Modelled
 * (simulated-GPU) epoch seconds must be bit-identical; the host
 * wall-clock of actually running the CPU-side work drops because the
 * sample / gather / compute stages overlap across threads.
 */
#include <cstdio>
#include <functional>

#include "fastgl.h"
#include "util/timer.h"

namespace {

using namespace fastgl;

double
wall_of(const std::function<core::EpochResult()> &run,
        core::EpochResult &out)
{
    const util::WallTimer timer;
    out = run();
    return timer.elapsed_seconds();
}

} // namespace

int
main()
{
    graph::ReplicaOptions ropts;
    ropts.materialize_features = false;
    const graph::Dataset ds =
        graph::load_replica(graph::DatasetId::kProducts, ropts);

    // A heavy sampling stage (deep fanouts, full replica) is the
    // regime where overlapping stages pays off.
    core::PipelineOptions opts;
    opts.fw = core::framework_preset(core::Framework::kFastGL);
    opts.num_gpus = 4;
    opts.fanouts = {10, 15, 25};
    opts.max_batches = 96;
    opts.reorder_window = 4;
    opts.seed = 2025;

    util::TextTable table(
        "Extension — sequential vs overlapped executor "
        "(FastGL/Products, 4 trainers, 96 batches)");
    table.set_header({"executor", "host wall (s)", "modelled (s)",
                      "host speedup", "bit-identical"});

    // Sequential reference.
    core::Pipeline seq(ds, opts);
    core::EpochResult seq_result;
    const double seq_wall =
        wall_of([&] { return seq.run_epoch(); }, seq_result);
    table.add_row({"sequential Pipeline",
                   util::TextTable::num(seq_wall, 3),
                   util::TextTable::num(seq_result.epoch_seconds, 4),
                   "1.00x", "--"});

    for (int threads : {1, 2, 4, 8}) {
        core::AsyncPipelineOptions async;
        async.sampler_threads = threads;
        core::AsyncPipeline pipe(ds, opts, async);
        core::EpochResult result;
        const double wall =
            wall_of([&] { return pipe.run_epoch(); }, result);
        const bool identical =
            result.epoch_seconds == seq_result.epoch_seconds &&
            result.phases.sample == seq_result.phases.sample &&
            result.phases.io == seq_result.phases.io &&
            result.phases.compute == seq_result.phases.compute &&
            result.nodes_loaded == seq_result.nodes_loaded &&
            result.cache_hits == seq_result.cache_hits;
        char label[64];
        std::snprintf(label, sizeof label, "async (%d samplers)",
                      threads);
        char speedup[32];
        std::snprintf(speedup, sizeof speedup, "%.2fx",
                      seq_wall / wall);
        table.add_row({label, util::TextTable::num(wall, 3),
                       util::TextTable::num(result.epoch_seconds, 4),
                       speedup, identical ? "yes" : "NO"});
    }

    table.print();
    std::printf("\nmodelled seconds are the simulator's GPU epoch time "
                "and must match the sequential executor bit-for-bit; "
                "host wall is the real CPU time to produce them — on a "
                "host with more cores than stages it shrinks as stages "
                "overlap (on a single-core host threading can only add "
                "overhead, and bit-identity is the point)\n");
    return 0;
}
