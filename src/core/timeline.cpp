#include "core/timeline.h"

namespace fastgl {
namespace core {

TimelineResult
simulate_epoch(const std::vector<BatchStageTimes> &batches,
               const TimelineConfig &config)
{
    TimelineResult result;
    sim::TaskSchedule &schedule = result.schedule;

    const int sampler =
        schedule.add_resource(config.dedicated_sampler ? "sampler-gpu"
                                                       : "gpu-sample");
    const int copy = schedule.add_resource("h2d-copy");
    const int compute = schedule.add_resource("gpu-compute");

    int prev_compute = -1;
    int prev_sample = -1;
    int prev_copy = -1;
    for (size_t b = 0; b < batches.size(); ++b) {
        const auto &t = batches[b];
        std::string tag = "b";
        tag += std::to_string(b);

        // Sampling: on a dedicated sampler it only serializes with
        // itself; on the training GPU it also waits for the previous
        // batch's compute (the device is busy).
        std::vector<int> sample_deps;
        if (prev_sample >= 0)
            sample_deps.push_back(prev_sample);
        if (!config.dedicated_sampler && prev_compute >= 0)
            sample_deps.push_back(prev_compute);
        const int s = schedule.add_task(sampler, t.sample, sample_deps,
                                        "sample-" + tag);

        // Transfer: depends on its batch's sampling; with double
        // buffering it overlaps the previous compute, otherwise it
        // waits for it.
        std::vector<int> copy_deps = {s};
        if (prev_copy >= 0)
            copy_deps.push_back(prev_copy);
        if (!config.overlap_copy_compute && prev_compute >= 0)
            copy_deps.push_back(prev_compute);
        const int c =
            schedule.add_task(copy, t.io, copy_deps, "io-" + tag);

        // Compute: depends on the transfer and the previous compute
        // (+ allreduce, folded into the compute duration's tail).
        std::vector<int> compute_deps = {c};
        if (prev_compute >= 0)
            compute_deps.push_back(prev_compute);
        const int k =
            schedule.add_task(compute, t.compute + config.allreduce,
                              compute_deps, "compute-" + tag);

        prev_sample = s;
        prev_copy = c;
        prev_compute = k;
    }

    result.makespan = schedule.run();
    return result;
}

double
simulate_epoch_to_trace(const std::vector<BatchStageTimes> &batches,
                        const TimelineConfig &config,
                        const std::string &trace_path)
{
    TimelineResult result = simulate_epoch(batches, config);
    if (!trace_path.empty())
        result.schedule.write_chrome_trace(trace_path);
    return result.makespan;
}

} // namespace core
} // namespace fastgl
