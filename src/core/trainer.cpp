#include "core/trainer.h"

#include <deque>

#include "sample/frequency_hashmap.h"
#include "sim/gpu_spec.h"
#include "sim/kernel_model.h"
#include "util/logging.h"

namespace fastgl {
namespace core {

Trainer::Trainer(const graph::Dataset &dataset, TrainerOptions opts)
    : dataset_(dataset),
      opts_(std::move(opts)),
      engine_(std::make_unique<compute::KernelEngine>(
          opts_.compute_threads)),
      cost_model_(sim::rtx3090(), compute::ComputePlan::kMemoryAware),
      splitter_(dataset.train_nodes,
                opts_.batch_size > 0 ? opts_.batch_size
                                     : dataset.batch_size,
                opts_.seed)
{
    if (opts_.model.in_dim == 0)
        opts_.model.in_dim = dataset.features.dim();
    if (opts_.model.num_classes == 0)
        opts_.model.num_classes = dataset.features.num_classes();
    opts_.model.num_layers = static_cast<int>(opts_.fanouts.size());
    opts_.model.seed = opts_.seed;

    model_ = std::make_unique<compute::GnnModel>(opts_.model);
    model_->set_engine(engine_.get());
    if (opts_.use_adam) {
        optimizer_ = std::make_unique<compute::Adam>(opts_.learning_rate);
    } else {
        optimizer_ =
            std::make_unique<compute::Sgd>(opts_.learning_rate, 0.9f);
    }

    sample::NeighborSamplerOptions nopts;
    nopts.fanouts = opts_.fanouts;
    nopts.seed = opts_.seed + 1;
    sampler_ = std::make_unique<sample::NeighborSampler>(dataset.graph,
                                                         nopts);

    gather_engine_ =
        std::make_unique<match::GatherEngine>(opts_.gather_threads);

    std::vector<graph::NodeId> hot_ranking;
    if (opts_.feature_cache_ratio > 0.0) {
        // Presample with dedicated sampler/splitter instances on
        // derived seeds so the training RNG streams stay untouched —
        // the cache is accounting only and must not move a single bit
        // of the training trajectory.
        constexpr int64_t kPresampleBatches = 8;
        sample::BatchSplitter presplit(
            dataset.train_nodes, splitter_.batch_size(),
            opts_.seed ^ 0xFEA7CACE5EEDULL);
        presplit.shuffle_epoch();
        sample::NeighborSamplerOptions popts = nopts;
        popts.seed = opts_.seed + 17;
        sample::NeighborSampler presampler(dataset.graph, popts);
        // One-pass count-while-dedup instead of the dense
        // count-then-sort two-pass; the sparse ranking overload is
        // bit-identical to the legacy pipeline.
        sample::FrequencyHashmap freq(static_cast<size_t>(
            splitter_.batch_size() * kPresampleBatches));
        const int64_t pre_batches =
            std::min<int64_t>(kPresampleBatches, presplit.num_batches());
        for (int64_t b = 0; b < pre_batches; ++b)
            freq.add_stream(presampler.sample(presplit.batch(b)).nodes);
        hot_ranking = match::presample_ranking(
            freq.uniques(), freq.counts(), dataset.graph.num_nodes());
        const auto &ranking = hot_ranking;
        const auto capacity = static_cast<int64_t>(
            double(dataset.graph.num_nodes()) * opts_.feature_cache_ratio);
        feature_cache_ = std::make_unique<match::StaticFeatureCache>(
            dataset.graph.num_nodes(), ranking, capacity);

        // Multi-GPU accounting: the same aggregate row budget split
        // into per-device shards along a graph partitioning. Every
        // training batch is additionally classified from its seed
        // partition's owner device; none of it feeds back into the
        // gathered bits or the training trajectory.
        if (opts_.num_gpus > 1) {
            partitioning_ = graph::partition_graph(
                dataset_.graph, opts_.num_gpus, opts_.partitioner);
            sharded_features_ =
                std::make_unique<match::PartitionedFeatureCache>(
                    partitioning_, ranking,
                    std::max<int64_t>(1, capacity / opts_.num_gpus),
                    opts_.num_gpus, opts_.shard_mode,
                    opts_.remote_policy);
            sim::PeerTopologyOptions peer;
            peer.num_devices = opts_.num_gpus;
            topo_ = std::make_unique<sim::PeerTopology>(sim::rtx3090(),
                                                        peer);
        }
    }

    // Out-of-core tier: host-DRAM residency follows the same hotness
    // ranking as the feature cache (degree order when no presample ran)
    // and the storage layout reuses the cache-sharding partitioning
    // when one exists. Accounting only — nothing here feeds back into
    // sampling, gathering, or the training trajectory.
    if (opts_.storage.storage != store::StorageKind::kNone) {
        if (hot_ranking.empty())
            hot_ranking = match::degree_ranking(dataset_.graph);
        tiered_store_ = std::make_unique<store::TieredFeatureStore>(
            dataset_.features, dataset_.graph, hot_ranking,
            partitioning_.empty() ? nullptr : &partitioning_,
            feature_cache_.get(), opts_.storage);
    }
}

compute::Tensor
Trainer::gather_features(const sample::SampledSubgraph &sg)
{
    // Batched SIMD gather into a leased panel. The returned tensor is
    // a zero-copy view — the forward pass reads (and input dropout
    // writes) the panel bytes directly, so the previous batch's panel
    // is done by the time we get here. Releasing it BEFORE gathering
    // returns its arena to the pool first, and the LIFO pool hands the
    // same (cache- and TLB-warm) arena straight back — the steady
    // state is one hot buffer, not two alternating cold ones.
    panel_.release();
    if (feature_cache_) {
        panel_ = gather_engine_
                     ->gather_cached(dataset_.features, sg.nodes,
                                     *feature_cache_)
                     .panel;
    } else {
        panel_ = gather_engine_->gather(dataset_.features, sg.nodes);
    }
    return compute::Tensor::view(panel_.data(), panel_.rows(),
                                 panel_.dim());
}

std::vector<int>
Trainer::seed_labels(const sample::SampledSubgraph &sg)
{
    std::vector<int> labels(static_cast<size_t>(sg.num_seeds));
    for (int64_t i = 0; i < sg.num_seeds; ++i)
        labels[static_cast<size_t>(i)] =
            dataset_.features.label(sg.nodes[static_cast<size_t>(i)]);
    return labels;
}

TrainEpochStats
Trainer::train_epoch()
{
    splitter_.shuffle_epoch();
    int64_t num_batches = splitter_.num_batches();
    if (opts_.max_batches > 0)
        num_batches = std::min(num_batches, opts_.max_batches);

    TrainEpochStats stats;
    engine_->reset_stats();
    gather_engine_->reset_stats();
    if (sharded_features_) {
        sharded_features_->reset_stats();
        sharded_features_->reset_overlay();
        topo_->reset();
    }
    if (tiered_store_)
        tiered_store_->begin_run();
    if (opts_.record_node_frequencies)
        stats.node_frequencies.assign(
            static_cast<size_t>(dataset_.graph.num_nodes()), 0);
    double loss_sum = 0.0, acc_sum = 0.0;
    // Per-stage profiling: replay each batch's charged phases through
    // a virtual sampler -> gather -> compute pipeline. Observation
    // only — the profiler never feeds anything back into the epoch
    // loop.
    prof::Profiler profiler(opts_.profile);
    prof::StageReplay replay(profiler, 0);
    const sim::KernelModel kernels(sim::rtx3090());
    const uint64_t row_bytes = dataset_.features.row_bytes();
    const bool storage_tier = tiered_store_ && tiered_store_->active();
    // Sampler lookahead for the storage prefetcher: batches are still
    // sampled strictly in order 0,1,2,... (every RNG stream untouched),
    // but up to prefetch_depth of them sit in this buffer before being
    // consumed — the window Pipeline's producer threads naturally
    // have — so their node sets can prefetch storage blocks early.
    std::deque<sample::SampledSubgraph> lookahead;
    int64_t next_to_sample = 0;
    const int64_t depth =
        storage_tier ? std::max(0, opts_.storage.prefetch_depth) : 0;
    for (int64_t b = 0; b < num_batches; ++b) {
        const int64_t horizon = std::min(b + depth, num_batches - 1);
        while (next_to_sample <= horizon) {
            lookahead.push_back(
                sampler_->sample(splitter_.batch(next_to_sample)));
            if (next_to_sample > b)
                stats.storage_hidden_seconds +=
                    tiered_store_->stage_future_batch(
                        next_to_sample, lookahead.back().nodes);
            ++next_to_sample;
        }
        sample::SampledSubgraph sg = std::move(lookahead.front());
        lookahead.pop_front();
        if (opts_.record_node_frequencies) {
            for (graph::NodeId u : sg.nodes)
                ++stats.node_frequencies[static_cast<size_t>(u)];
        }
        const double batch_compute_s =
            cost_model_.training_step(opts_.model, sg).total();
        stats.modelled_compute_seconds += batch_compute_s;
        // Batch affinity: the device owning the first seed's partition
        // runs the batch; rows on peer shards charge the interconnect,
        // rows below host DRAM the storage tier.
        const int dev = sharded_features_ && !sg.nodes.empty()
                            ? sharded_features_->owner_device(sg.nodes[0])
                            : 0;
        const store::RowCharge charge = store::charge_batch_rows(
            {feature_cache_.get(), sharded_features_.get(), topo_.get(),
             tiered_store_.get(), row_bytes},
            dev, sg.nodes);
        stats.storage_stall_seconds += charge.storage_s;
        if (storage_tier)
            tiered_store_->complete_batch(b);

        const uint64_t feature_bytes =
            static_cast<uint64_t>(charge.misses) * row_bytes;
        replay.add({.sample = kernels.sample_gpu(sg.edges_examined),
                    .id_map = kernels.id_map_fused(sg.id_map),
                    .io = kernels.host_transfer(
                              feature_bytes + sg.topology_bytes(),
                              feature_bytes) +
                          charge.peer_s + charge.storage_s,
                    .storage = charge.storage_s,
                    .compute = batch_compute_s,
                    .items = sg.num_seeds,
                    .rows = static_cast<int64_t>(sg.nodes.size()),
                    .misses = charge.misses,
                    .storage_tier = storage_tier});
        compute::Tensor x = gather_features(sg);
        if (opts_.input_dropout > 0.0f)
            apply_input_dropout(x);
        compute::Tensor logits = model_->forward(sg, x);

        const std::vector<int> labels = seed_labels(sg);
        compute::LossResult loss =
            compute::softmax_cross_entropy(logits, labels);

        model_->zero_grad();
        model_->backward(sg, loss.grad_logits);
        optimizer_->step(model_->parameters());

        stats.iteration_losses.push_back(loss.loss);
        loss_sum += loss.loss;
        acc_sum += loss.accuracy;
    }
    stats.mean_loss = loss_sum / double(num_batches);
    stats.mean_accuracy = acc_sum / double(num_batches);

    // Measured host-kernel counters for this epoch, reported next to
    // the modelled GPU seconds so drift between the two is visible.
    const compute::KernelEngineStats &ks = engine_->stats();
    stats.measured_compute.gemm_seconds = ks.gemm_seconds;
    stats.measured_compute.gemm_flops = ks.gemm_flops;
    stats.measured_compute.agg_seconds = ks.agg_seconds;
    stats.measured_compute.agg_flops = ks.agg_flops;
    stats.measured_compute.agg_bytes = ks.agg_bytes;
    stats.measured_compute.agg_edges = ks.agg_edges;
    stats.gather = gather_engine_->stats();
    stats.num_gpus = std::max(1, opts_.num_gpus);
    if (sharded_features_) {
        stats.shard_totals = sharded_features_->totals();
        stats.per_partition = sharded_features_->per_partition();
        stats.peer_links = topo_->active_links();
    }
    if (tiered_store_)
        stats.store = tiered_store_->stats();
    stats.modelled_epoch_seconds =
        stats.modelled_compute_seconds + stats.storage_stall_seconds;
    profiler.set_makespan(replay.makespan());
    stats.profile = profiler.report();
    return stats;
}

void
Trainer::apply_input_dropout(compute::Tensor &features)
{
    // Inverted dropout: surviving entries are scaled by 1/(1-p) so the
    // expected activation is unchanged; gradients flow through the
    // surviving entries only because the zeroed inputs contribute zero.
    const float p = opts_.input_dropout;
    const float scale = 1.0f / (1.0f - p);
    float *data = features.data();
    for (int64_t i = 0; i < features.numel(); ++i)
        data[i] = dropout_rng_.next_double() < p ? 0.0f
                                                 : data[i] * scale;
}

double
Trainer::evaluate_nodes(std::span<const graph::NodeId> nodes,
                        int64_t max_batches)
{
    FASTGL_CHECK(!nodes.empty(), "empty evaluation node list");
    const int64_t batch =
        opts_.batch_size > 0 ? opts_.batch_size : dataset_.batch_size;
    int64_t num_batches =
        (int64_t(nodes.size()) + batch - 1) / batch;
    if (max_batches > 0)
        num_batches = std::min(num_batches, max_batches);
    double acc_sum = 0.0;
    for (int64_t b = 0; b < num_batches; ++b) {
        const size_t begin = size_t(b * batch);
        const size_t end =
            std::min(nodes.size(), begin + size_t(batch));
        sample::SampledSubgraph sg =
            sampler_->sample(nodes.subspan(begin, end - begin));
        compute::Tensor x = gather_features(sg);
        compute::Tensor logits = model_->forward(sg, x);
        const std::vector<int> labels = seed_labels(sg);
        acc_sum +=
            compute::softmax_cross_entropy(logits, labels).accuracy;
    }
    return acc_sum / double(num_batches);
}

double
Trainer::evaluate(int64_t max_batches)
{
    return evaluate_nodes(splitter_.nodes(), max_batches);
}

} // namespace core
} // namespace fastgl
