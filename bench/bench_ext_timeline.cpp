/**
 * @file
 * Extension validation: the Pipeline's closed-form wall-clock vs the
 * discrete-event timeline (core::simulate_epoch_multi on trainer 0's
 * batch list) executed batch by batch, for each framework's overlap
 * structure (serial DGL, GNNLab's dedicated sampler + double
 * buffering, FastGL's prefetch). Also exports a chrome://tracing
 * timeline of a FastGL epoch (/tmp/fastgl_epoch_trace.json).
 */
#include <cstdio>

#include "fastgl.h"

namespace {

using namespace fastgl;

core::MultiGpuConfig
config_for(const core::FrameworkConfig &fw)
{
    core::MultiGpuConfig config;
    config.base.dedicated_sampler = fw.pipelined_sampling;
    config.base.overlap_copy_compute = fw.pipelined_sampling;
    return config;
}

} // namespace

int
main()
{
    graph::ReplicaOptions ropts;
    ropts.materialize_features = false;
    const graph::Dataset ds =
        graph::load_replica(graph::DatasetId::kProducts, ropts);

    util::TextTable table(
        "Extension — closed-form wall clock vs event-driven makespan "
        "(GCN/Products, 1 trainer)");
    table.set_header({"framework", "closed-form (s)",
                      "event-driven (s)", "ratio"});

    for (core::Framework fw :
         {core::Framework::kDgl, core::Framework::kGnnLab,
          core::Framework::kFastGL}) {
        core::PipelineOptions opts;
        opts.fw = core::framework_preset(fw);
        // One trainer keeps the comparison exact (the closed form takes
        // a max across symmetric trainers).
        opts.num_gpus = opts.fw.pipelined_sampling ? 2 : 1;
        opts.seed = 2025;
        core::Pipeline pipe(ds, opts);
        const auto result = pipe.run_epoch();

        const auto timeline = core::simulate_epoch_multi(
            {core::to_multi_gpu_batches(pipe.last_epoch_stage_times())},
            config_for(opts.fw));

        table.add_row({opts.fw.name,
                       util::TextTable::num(result.epoch_seconds, 4),
                       util::TextTable::num(timeline.makespan, 4),
                       util::TextTable::num(
                           result.epoch_seconds / timeline.makespan,
                           3)});

        if (fw == core::Framework::kFastGL)
            timeline.schedule.write_chrome_trace(
                "/tmp/fastgl_epoch_trace.json");
    }
    table.print();
    std::printf("\nratios near 1.0 validate the closed-form overlap "
                "model; a FastGL epoch trace was written to "
                "/tmp/fastgl_epoch_trace.json (open in "
                "chrome://tracing)\n");
    return 0;
}
