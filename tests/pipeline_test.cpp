/**
 * @file
 * Tests for the epoch pipeline: framework presets, phase accounting,
 * and the paper's qualitative orderings (FastGL loads fewer bytes than
 * DGL, fused ID map beats sync, GNNLab hides sampling, etc.).
 */
#include <gtest/gtest.h>

#include <cstdio>

#include "core/framework_config.h"
#include "core/multi_gpu.h"
#include "core/pipeline.h"
#include "graph/datasets.h"
#include "graph/serialize.h"

namespace fastgl {
namespace {

const graph::Dataset &
products()
{
    static graph::Dataset ds = [] {
        graph::ReplicaOptions opts;
        opts.size_factor = 0.15;
        opts.materialize_features = false;
        return graph::load_replica(graph::DatasetId::kProducts, opts);
    }();
    return ds;
}

core::PipelineOptions
base_options(core::Framework fw)
{
    core::PipelineOptions opts;
    opts.fw = core::framework_preset(fw);
    opts.num_gpus = 2;
    opts.max_batches = 8;
    opts.seed = 99;
    return opts;
}

TEST(FrameworkConfig, PresetsMatchTable5)
{
    const auto pyg = core::framework_preset(core::Framework::kPyG);
    EXPECT_EQ(pyg.sample_device, core::SampleDevice::kCpu);
    EXPECT_EQ(pyg.io, core::IoStrategy::kFullLoad);

    const auto dgl = core::framework_preset(core::Framework::kDgl);
    EXPECT_EQ(dgl.sample_device, core::SampleDevice::kGpu);
    EXPECT_EQ(dgl.id_map, core::IdMapEngine::kGpuSync);

    const auto lab = core::framework_preset(core::Framework::kGnnLab);
    EXPECT_EQ(lab.io, core::IoStrategy::kStaticCache);
    EXPECT_TRUE(lab.pipelined_sampling);

    const auto fast = core::framework_preset(core::Framework::kFastGL);
    EXPECT_EQ(fast.id_map, core::IdMapEngine::kGpuFused);
    EXPECT_EQ(fast.io, core::IoStrategy::kMatchReorder);
    EXPECT_EQ(fast.compute_plan, compute::ComputePlan::kMemoryAware);

    EXPECT_EQ(core::framework_name(core::Framework::kGnnAdvisor),
              "GNNAdvisor");
}

TEST(Pipeline, EpochProducesConsistentAccounting)
{
    core::Pipeline pipe(products(), base_options(core::Framework::kDgl));
    const auto result = pipe.run_epoch();
    EXPECT_EQ(result.batches, 8);
    EXPECT_GT(result.epoch_seconds, 0.0);
    EXPECT_GT(result.phases.sample, 0.0);
    EXPECT_GT(result.phases.id_map, 0.0);
    EXPECT_GT(result.phases.io, 0.0);
    EXPECT_GT(result.phases.compute, 0.0);
    EXPECT_GT(result.phases.allreduce, 0.0); // 2 GPUs
    EXPECT_GT(result.nodes_loaded, 0);
    EXPECT_GT(result.bytes_loaded, 0u);
    EXPECT_GT(result.sampled_instances, result.unique_nodes);
}

TEST(Pipeline, DeterministicAcrossRuns)
{
    core::Pipeline a(products(), base_options(core::Framework::kFastGL));
    core::Pipeline b(products(), base_options(core::Framework::kFastGL));
    const auto ra = a.run_epoch();
    const auto rb = b.run_epoch();
    EXPECT_DOUBLE_EQ(ra.epoch_seconds, rb.epoch_seconds);
    EXPECT_EQ(ra.nodes_loaded, rb.nodes_loaded);
}

TEST(Pipeline, MatchReducesLoadsVersusFullLoad)
{
    // The Match process must strictly reduce PCIe feature traffic
    // relative to DGL's full loads (paper Section 4.1).
    core::Pipeline dgl(products(), base_options(core::Framework::kDgl));
    auto fast_opts = base_options(core::Framework::kFastGL);
    fast_opts.fw.cache_on_top_of_match = false; // isolate Match
    core::Pipeline fast(products(), fast_opts);

    const auto rd = dgl.run_epoch();
    const auto rf = fast.run_epoch();
    EXPECT_LT(rf.nodes_loaded, rd.nodes_loaded);
    EXPECT_GT(rf.nodes_reused, 0);
    EXPECT_GT(rf.reuse_fraction(), 0.1);
    EXPECT_LT(rf.phases.io, rd.phases.io);
}

TEST(Pipeline, FusedIdMapFasterThanSync)
{
    core::Pipeline dgl(products(), base_options(core::Framework::kDgl));
    core::Pipeline fast(products(),
                        base_options(core::Framework::kFastGL));
    const auto rd = dgl.run_epoch();
    const auto rf = fast.run_epoch();
    EXPECT_LT(rf.phases.id_map, rd.phases.id_map);
    const double ratio = rd.phases.id_map / rf.phases.id_map;
    // Paper Table 8: 2.1x - 2.7x.
    EXPECT_GT(ratio, 1.6);
    EXPECT_LT(ratio, 3.5);
}

TEST(Pipeline, PygSamplingDominatesItsEpoch)
{
    core::Pipeline pyg(products(), base_options(core::Framework::kPyG));
    const auto result = pyg.run_epoch();
    // Paper: PyG spends up to 97% of time sampling on CPU.
    EXPECT_GT(result.phases.sample_total() / result.phases.total(),
              0.5);
}

TEST(Pipeline, FastGlBeatsDglEndToEnd)
{
    core::Pipeline dgl(products(), base_options(core::Framework::kDgl));
    core::Pipeline fast(products(),
                        base_options(core::Framework::kFastGL));
    const double td = dgl.run_epoch().epoch_seconds;
    const double tf = fast.run_epoch().epoch_seconds;
    EXPECT_LT(tf, td);
    // Paper Fig. 9: 1.7x-5.1x over DGL.
    EXPECT_GT(td / tf, 1.2);
    EXPECT_LT(td / tf, 8.0);
}

TEST(Pipeline, GnnLabDedicatesSamplerGpus)
{
    auto opts = base_options(core::Framework::kGnnLab);
    opts.num_gpus = 2;
    core::Pipeline two(products(), opts);
    EXPECT_EQ(two.sampler_gpus(), 1);
    EXPECT_EQ(two.trainer_gpus(), 1);

    opts.num_gpus = 8;
    core::Pipeline eight(products(), opts);
    EXPECT_EQ(eight.sampler_gpus(), 2);
    EXPECT_EQ(eight.trainer_gpus(), 6);
}

TEST(Pipeline, GnnLabWallClockHidesSampling)
{
    auto opts = base_options(core::Framework::kGnnLab);
    core::Pipeline lab(products(), opts);
    const auto result = lab.run_epoch();
    // Wall clock must be below the serial sum of phases (overlap).
    EXPECT_LT(result.epoch_seconds, result.phases.total());
}

TEST(Pipeline, MoreGpusReduceEpochTime)
{
    auto opts1 = base_options(core::Framework::kFastGL);
    opts1.num_gpus = 1;
    opts1.max_batches = 12;
    auto opts4 = opts1;
    opts4.num_gpus = 4;
    core::Pipeline one(products(), opts1);
    core::Pipeline four(products(), opts4);
    EXPECT_GT(one.run_epoch().epoch_seconds,
              four.run_epoch().epoch_seconds);
}

TEST(Pipeline, ExplicitCacheRatioControlsCacheSize)
{
    auto opts = base_options(core::Framework::kGnnLab);
    opts.cache_ratio = 0.5;
    core::Pipeline pipe(products(), opts);
    EXPECT_NEAR(double(pipe.cache_capacity_rows()),
                0.5 * double(products().graph.num_nodes()), 1.0);

    opts.cache_ratio = 0.0;
    core::Pipeline none(products(), opts);
    EXPECT_EQ(none.cache_capacity_rows(), 0);
}

TEST(Pipeline, LargerCacheLoadsFewerNodes)
{
    auto small = base_options(core::Framework::kGnnLab);
    small.cache_ratio = 0.05;
    auto large = base_options(core::Framework::kGnnLab);
    large.cache_ratio = 0.6;
    core::Pipeline ps(products(), small);
    core::Pipeline pl(products(), large);
    EXPECT_GT(ps.run_epoch().nodes_loaded,
              pl.run_epoch().nodes_loaded);
}

TEST(Pipeline, RandomWalkModeRuns)
{
    auto opts = base_options(core::Framework::kFastGL);
    opts.use_random_walk = true;
    core::Pipeline pipe(products(), opts);
    const auto result = pipe.run_epoch();
    EXPECT_GT(result.epoch_seconds, 0.0);
    EXPECT_GT(result.nodes_reused, 0);
}

TEST(Pipeline, MultiMachineSplitsWorkAndPaysNetwork)
{
    auto opts = base_options(core::Framework::kFastGL);
    opts.max_batches = 16;
    core::Pipeline one(products(), opts);
    opts.num_machines = 4;
    core::Pipeline four(products(), opts);
    EXPECT_EQ(four.total_trainers(), 4 * four.trainer_gpus());

    const auto r1 = one.run_epoch();
    const auto r4 = four.run_epoch();
    // More machines -> shorter epoch...
    EXPECT_LT(r4.epoch_seconds, r1.epoch_seconds);
    // ...but not linearly (network allreduce tax).
    EXPECT_GT(r4.epoch_seconds, r1.epoch_seconds / 4.0);
}

TEST(Pipeline, SlowNetworkErodesMultiMachineGains)
{
    auto opts = base_options(core::Framework::kFastGL);
    opts.max_batches = 16;
    opts.num_machines = 4;
    core::Pipeline fast_net(products(), opts);
    opts.network_bw = 0.125e9; // 1 Gb/s
    core::Pipeline slow_net(products(), opts);
    EXPECT_GT(slow_net.run_epoch().epoch_seconds,
              fast_net.run_epoch().epoch_seconds);
}

TEST(Pipeline, ExportsStageTimesForTimelineValidation)
{
    auto opts = base_options(core::Framework::kDgl);
    opts.num_gpus = 1;
    opts.max_batches = 5;
    core::Pipeline pipe(products(), opts);
    const auto result = pipe.run_epoch();
    const auto &stages = pipe.last_epoch_stage_times();
    ASSERT_EQ(int64_t(stages.size()), result.batches);

    // DGL is fully serial: the event-driven makespan equals both the
    // stage-time sum and the closed-form wall clock.
    double serial = 0.0;
    for (const auto &s : stages)
        serial += s.sample + s.io + s.compute;
    core::MultiGpuConfig config; // one device, no overlap
    const auto timeline = core::simulate_epoch_multi(
        {core::to_multi_gpu_batches(stages)}, config);
    EXPECT_NEAR(timeline.makespan, serial, 1e-12);
    EXPECT_NEAR(timeline.makespan, result.epoch_seconds, 1e-9);
}

TEST(Pipeline, SerializedDatasetRunsIdentically)
{
    // save -> load -> run must reproduce the original pipeline exactly.
    const std::string path = "/tmp/fastgl_pipe_roundtrip.bin";
    ASSERT_TRUE(graph::save_dataset(products(), path));
    graph::Dataset loaded;
    ASSERT_TRUE(graph::load_dataset(loaded, path, false));
    std::remove(path.c_str());

    auto opts = base_options(core::Framework::kFastGL);
    core::Pipeline original(products(), opts);
    core::Pipeline reloaded(loaded, opts);
    const auto a = original.run_epoch();
    const auto b = reloaded.run_epoch();
    EXPECT_DOUBLE_EQ(a.epoch_seconds, b.epoch_seconds);
    EXPECT_EQ(a.nodes_loaded, b.nodes_loaded);
}

TEST(Pipeline, ModelParamBytesAnalytic)
{
    compute::ModelConfig cfg;
    cfg.type = compute::ModelType::kGcn;
    cfg.in_dim = 100;
    cfg.hidden_dim = 64;
    cfg.num_classes = 10;
    cfg.num_layers = 2;
    // (100*64 + 64) + (64*10 + 10) floats.
    EXPECT_EQ(core::model_param_bytes(cfg),
              (100 * 64 + 64 + 64 * 10 + 10) * sizeof(float));

    compute::GnnModel model(cfg);
    EXPECT_EQ(core::model_param_bytes(cfg), model.param_bytes());
}

TEST(Pipeline, ParamBytesMatchRealModelForAllTypes)
{
    for (auto type : {compute::ModelType::kGcn, compute::ModelType::kGin,
                      compute::ModelType::kGat}) {
        compute::ModelConfig cfg;
        cfg.type = type;
        cfg.in_dim = 60;
        cfg.hidden_dim = 32;
        cfg.num_classes = 9;
        cfg.num_layers = 3;
        compute::GnnModel model(cfg);
        EXPECT_EQ(core::model_param_bytes(cfg), model.param_bytes())
            << compute::model_type_name(type);
    }
}

} // namespace
} // namespace fastgl
