/**
 * @file
 * Tests for the discrete-event scheduler and the epoch timeline: the
 * event-driven makespans must reproduce the closed-form overlap math the
 * Pipeline uses (serial sums, hidden transfers, sampler dedication).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "core/timeline.h"
#include "json_check.h"
#include "sim/task_schedule.h"

namespace fastgl {
namespace {

TEST(TaskSchedule, SequentialOnOneResource)
{
    sim::TaskSchedule schedule;
    const int r = schedule.add_resource("stream");
    schedule.add_task(r, 1.0, {});
    schedule.add_task(r, 2.0, {});
    schedule.add_task(r, 3.0, {});
    EXPECT_DOUBLE_EQ(schedule.run(), 6.0);
    EXPECT_DOUBLE_EQ(schedule.timings()[1].start, 1.0);
    EXPECT_DOUBLE_EQ(schedule.timings()[2].finish, 6.0);
}

TEST(TaskSchedule, IndependentResourcesRunConcurrently)
{
    sim::TaskSchedule schedule;
    const int a = schedule.add_resource("a");
    const int b = schedule.add_resource("b");
    schedule.add_task(a, 5.0, {});
    schedule.add_task(b, 3.0, {});
    EXPECT_DOUBLE_EQ(schedule.run(), 5.0);
}

TEST(TaskSchedule, DependenciesDelayStart)
{
    sim::TaskSchedule schedule;
    const int a = schedule.add_resource("a");
    const int b = schedule.add_resource("b");
    const int t0 = schedule.add_task(a, 2.0, {});
    const int t1 = schedule.add_task(b, 1.0, {t0});
    schedule.add_task(a, 1.0, {t1});
    EXPECT_DOUBLE_EQ(schedule.run(), 4.0); // 2 -> 1 -> 1 chained
}

TEST(TaskSchedule, ChromeTraceExports)
{
    sim::TaskSchedule schedule;
    const int r = schedule.add_resource("gpu");
    schedule.add_task(r, 0.001, {}, "work");
    schedule.run();
    const std::string path = "/tmp/fastgl_trace_test.json";
    ASSERT_TRUE(schedule.write_chrome_trace(path));
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(content.find("\"work\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(TaskSchedule, ChromeTraceWithHostileLabelsParses)
{
    sim::TaskSchedule schedule;
    const int r = schedule.add_resource("gpu");
    const std::string quoted = "say \"hi\" \\ bye";
    const std::string longest(300, 'x');
    schedule.add_task(r, 0.001, {}, quoted);
    schedule.add_task(r, 0.002, {}, longest);
    schedule.run();
    const std::string path = "/tmp/fastgl_hostile_trace_test.json";
    ASSERT_TRUE(schedule.write_chrome_trace(path));
    std::ifstream in(path);
    const std::string content((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    testing_json::Reader reader(content);
    ASSERT_TRUE(reader.parse()) << content;
    const auto &strings = reader.strings();
    EXPECT_NE(std::find(strings.begin(), strings.end(), quoted),
              strings.end());
    EXPECT_NE(std::find(strings.begin(), strings.end(), longest),
              strings.end());
}

TEST(TaskSchedule, TraceBeforeRunFails)
{
    sim::TaskSchedule schedule;
    schedule.add_resource("r");
    EXPECT_FALSE(schedule.write_chrome_trace("/tmp/never.json"));
}

TEST(TaskSchedule, RejectsForwardDependencies)
{
    sim::TaskSchedule schedule;
    const int r = schedule.add_resource("r");
    EXPECT_DEATH(schedule.add_task(r, 1.0, {5}),
                 "dependency on a later/unknown task");
}

// ---- Epoch timelines ----

std::vector<core::BatchStageTimes>
uniform_batches(int n, double sample, double io, double compute)
{
    return std::vector<core::BatchStageTimes>(
        size_t(n), core::BatchStageTimes{sample, io, compute});
}

TEST(Timeline, SerialFrameworkMakespanIsTheSum)
{
    // DGL/PyG: no overlap -> makespan == n * (s + io + c).
    const auto batches = uniform_batches(8, 1.0, 2.0, 3.0);
    core::TimelineConfig config; // all overlap off
    const auto result = core::simulate_epoch(batches, config);
    EXPECT_DOUBLE_EQ(result.makespan, 8.0 * 6.0);
}

TEST(Timeline, DoubleBufferingHidesTransfers)
{
    // With copy/compute overlap and a dedicated sampler, steady state is
    // paced by the compute stream: makespan ~ s + io + n*c.
    const auto batches = uniform_batches(10, 0.5, 1.0, 3.0);
    core::TimelineConfig config;
    config.overlap_copy_compute = true;
    config.dedicated_sampler = true;
    const auto result = core::simulate_epoch(batches, config);
    EXPECT_NEAR(result.makespan, 0.5 + 1.0 + 10 * 3.0, 1e-9);
    // Strictly better than serial.
    EXPECT_LT(result.makespan, 10 * 4.5);
}

TEST(Timeline, BottleneckStagePacesThePipeline)
{
    // When io dominates, the pipeline is paced by the copy stream.
    const auto batches = uniform_batches(10, 0.2, 5.0, 1.0);
    core::TimelineConfig config;
    config.overlap_copy_compute = true;
    config.dedicated_sampler = true;
    const auto result = core::simulate_epoch(batches, config);
    EXPECT_NEAR(result.makespan, 0.2 + 10 * 5.0 + 1.0, 1e-9);
}

TEST(Timeline, DedicatedSamplerHidesSampling)
{
    const auto slow_sample = uniform_batches(10, 2.0, 0.5, 2.0);
    core::TimelineConfig on_device; // sampling serializes with compute
    const double serialized =
        core::simulate_epoch(slow_sample, on_device).makespan;
    core::TimelineConfig dedicated;
    dedicated.dedicated_sampler = true;
    dedicated.overlap_copy_compute = true;
    const double hidden =
        core::simulate_epoch(slow_sample, dedicated).makespan;
    EXPECT_LT(hidden, serialized);
    // Sampling (2.0/batch) matches compute (2.0/batch): compute-paced.
    EXPECT_NEAR(hidden, 2.0 + 0.5 + 10 * 2.0, 1e-9);
}

TEST(Timeline, AllreduceExtendsEveryIteration)
{
    const auto batches = uniform_batches(5, 1.0, 1.0, 1.0);
    core::TimelineConfig config;
    config.allreduce = 0.5;
    const auto with = core::simulate_epoch(batches, config).makespan;
    config.allreduce = 0.0;
    const auto without = core::simulate_epoch(batches, config).makespan;
    EXPECT_DOUBLE_EQ(with - without, 5 * 0.5);
}

TEST(Timeline, EmptyEpochIsZero)
{
    core::TimelineConfig config;
    EXPECT_DOUBLE_EQ(core::simulate_epoch({}, config).makespan, 0.0);
}

TEST(Timeline, TraceFileWritten)
{
    const auto batches = uniform_batches(3, 0.001, 0.002, 0.003);
    core::TimelineConfig config;
    config.overlap_copy_compute = true;
    const std::string path = "/tmp/fastgl_epoch_trace.json";
    const double makespan =
        core::simulate_epoch_to_trace(batches, config, path);
    EXPECT_GT(makespan, 0.0);
    std::ifstream in(path);
    EXPECT_TRUE(in.good());
    std::remove(path.c_str());
}

} // namespace
} // namespace fastgl
