/**
 * @file
 * Tests for the library features: train/val/test splits,
 * with-replacement sampling, input dropout, held-out evaluation.
 */
#include <gtest/gtest.h>

#include <set>

#include "core/trainer.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "sample/neighbor_sampler.h"

namespace fastgl {
namespace {

TEST(Splits, DisjointAndFractionCorrect)
{
    graph::ReplicaOptions ropts;
    ropts.size_factor = 0.2;
    ropts.materialize_features = false;
    for (auto id :
         {graph::DatasetId::kReddit, graph::DatasetId::kPapers100M}) {
        const graph::Dataset ds = graph::load_replica(id, ropts);
        ASSERT_FALSE(ds.train_nodes.empty());
        ASSERT_FALSE(ds.val_nodes.empty());
        ASSERT_FALSE(ds.test_nodes.empty());

        std::set<graph::NodeId> train(ds.train_nodes.begin(),
                                      ds.train_nodes.end());
        for (graph::NodeId u : ds.val_nodes)
            EXPECT_FALSE(train.count(u));
        for (graph::NodeId u : ds.test_nodes)
            EXPECT_FALSE(train.count(u));
        std::set<graph::NodeId> val(ds.val_nodes.begin(),
                                    ds.val_nodes.end());
        for (graph::NodeId u : ds.test_nodes)
            EXPECT_FALSE(val.count(u));

        const double frac = double(ds.train_nodes.size()) /
                            double(ds.graph.num_nodes());
        const double target = std::min(
            0.9, graph::full_scale_spec(id).train_fraction);
        EXPECT_NEAR(frac, target, 0.02) << graph::dataset_name(id);
    }
}

TEST(SamplerReplace, SampledDegreeEqualsFanout)
{
    graph::RmatParams params;
    params.num_nodes = 2000;
    params.num_edges = 20000;
    params.seed = 5;
    graph::CsrGraph g = graph::generate_rmat(params);
    sample::NeighborSamplerOptions opts;
    opts.fanouts = {4};
    opts.replace = true;
    opts.add_self_loops = false;
    sample::NeighborSampler sampler(g, opts);
    std::vector<graph::NodeId> seeds = {1, 2, 3};
    const auto sg = sampler.sample(seeds);
    const auto &blk = sg.blocks[0];
    for (int64_t t = 0; t < blk.num_targets(); ++t) {
        const graph::NodeId gu = sg.nodes[size_t(t)];
        if (g.degree(gu) > 0) {
            EXPECT_EQ(blk.indptr[t + 1] - blk.indptr[t], 4);
        }
    }
}

TEST(TrainerExtras, InputDropoutStillLearns)
{
    graph::ReplicaOptions ropts;
    ropts.size_factor = 0.05;
    const graph::Dataset ds =
        graph::load_replica(graph::DatasetId::kReddit, ropts);
    core::TrainerOptions opts;
    opts.fanouts = {4, 4};
    opts.max_batches = 4;
    opts.batch_size = 32;
    opts.input_dropout = 0.3f;
    core::Trainer trainer(ds, opts);
    const auto first = trainer.train_epoch();
    double last = first.mean_loss;
    for (int e = 0; e < 4; ++e)
        last = trainer.train_epoch().mean_loss;
    EXPECT_LT(last, first.mean_loss * 1.02);
}

TEST(TrainerExtras, EvaluateOnHeldOutSplits)
{
    graph::ReplicaOptions ropts;
    ropts.size_factor = 0.05;
    const graph::Dataset ds =
        graph::load_replica(graph::DatasetId::kReddit, ropts);
    core::TrainerOptions opts;
    opts.fanouts = {4, 4};
    opts.max_batches = 4;
    opts.batch_size = 32;
    core::Trainer trainer(ds, opts);
    trainer.train_epoch();
    const double val = trainer.evaluate_nodes(ds.val_nodes, 2);
    const double test = trainer.evaluate_nodes(ds.test_nodes, 2);
    EXPECT_GE(val, 0.0);
    EXPECT_LE(val, 1.0);
    EXPECT_GE(test, 0.0);
    EXPECT_LE(test, 1.0);
}

} // namespace
} // namespace fastgl
