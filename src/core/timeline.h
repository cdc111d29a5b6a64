/**
 * @file
 * Inputs of the event-driven epoch timeline: per-batch stage durations
 * and a framework's overlap structure (serial DGL/PyG, double-buffered
 * transfer, GNNLab's dedicated sampler GPU, FastGL's topology
 * prefetch). core::simulate_epoch_multi (core/multi_gpu.h) builds and
 * executes the sim::TaskSchedule; one device's batch list is the
 * single-trainer epoch.
 *
 * The closed-form wall-clock in core::Pipeline and this event-driven
 * makespan must agree — the validation tests and bench_ext_timeline
 * check exactly that.
 */
#pragma once

namespace fastgl {
namespace core {

/** Stage durations of one batch on one trainer. */
struct BatchStageTimes
{
    double sample = 0.0;  ///< Traversal + ID map.
    double io = 0.0;      ///< Feature gather + transfer.
    double compute = 0.0; ///< Forward + backward.
};

/** Overlap structure of one framework preset. */
struct TimelineConfig
{
    /**
     * Transfers double-buffer against compute (the copy of batch b+1
     * overlaps the computation of batch b). GNNLab's factored design.
     */
    bool overlap_copy_compute = false;
    /**
     * Sampling runs on a dedicated resource (GNNLab's sampler GPU) and
     * overlaps everything downstream.
     */
    bool dedicated_sampler = false;
    /** Per-iteration gradient synchronization appended after compute. */
    double allreduce = 0.0;
};

} // namespace core
} // namespace fastgl
