/**
 * @file
 * Serving scenario: serve::Server::serve over an open-loop,
 * constant-rate Poisson ladder (5k, 10k, 20k and 40k rps, 20 ms SLO).
 *
 * Two ladders share the rates. The host ladder runs with real logits
 * and is replayed every pass on the same Server; each call starts from
 * the same cold caches, so its fingerprint and every modelled statistic
 * must repeat exactly, and its passes give serve.host_rps. The SLO
 * ladder serves longer traces once with logits off — the library keeps
 * the virtual world identical either way, which the scenario checks —
 * because a shed fraction of a few percent needs tens of thousands of
 * requests to repeat across seeds. Its 20k rung pools several
 * independent traces: the miss share varies mostly from trace to trace.
 */
#include <array>
#include <cstdio>

#include "common.h"
#include "util/rng.h"

using namespace fastgl;

namespace perfbench {

namespace {

struct Rung
{
    const char *tag;
    double rate_rps;
    int64_t host_requests; ///< Host ladder trace length.
    int64_t slo_requests;  ///< Length of each SLO ladder trace.
    int slo_traces;        ///< Independent SLO ladder traces pooled.
};

constexpr std::array<Rung, 4> kLadder = {
    {{"r5k", 5000.0, 1024, 2048, 1},
     {"r10k", 10000.0, 1024, 4096, 1},
     {"r20k", 20000.0, 2048, 16384, 4},
     {"r40k", 40000.0, 2048, 8192, 1}}};
constexpr size_t kSloRung = 2;
constexpr size_t kGoodputRung = 3;
constexpr double kSloSeconds = 20e-3;
/** A rung meets the SLO when this share is served within deadline. */
constexpr double kOnTimeTarget = 0.99;

/** Modelled outcome of one serve() call; repeats exactly. */
struct RungOutcome
{
    uint64_t fingerprint = 0;
    int64_t offered = 0;
    int64_t on_time = 0;
    int64_t served = 0;
    int64_t shed_queue = 0;
    int64_t dropped_deadline = 0;
    int64_t batches = 0;
    double mean_batch_size = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
    double goodput_rps = 0.0;
    double feature_hit_rate = 0.0;
    double embedding_hit_rate = 0.0;
    double gpu_utilization = 0.0;
    double storage_stall_s = 0.0;

    bool operator==(const RungOutcome &) const = default;
};

/** Modelled totals of the SLO ladder's traces at one rung. */
struct SloTotals
{
    int64_t offered = 0;
    int64_t on_time = 0;
    int64_t shed_queue = 0;
    int64_t dropped_deadline = 0;
    int64_t batches = 0;
    double batched = 0.0; ///< Requests in dispatched batches.
    double makespan = 0.0;
    double busy = 0.0;
    double stall = 0.0;
    int64_t feature_hits = 0;
    int64_t feature_lookups = 0;
    double embedding_hit_rate_sum = 0.0;
    int traces = 0;
    util::SampleStat latencies; ///< Of every served request.

    void
    add(const serve::ServingStats &st)
    {
        offered += st.offered;
        on_time += st.served - st.served_late;
        shed_queue += st.shed_queue;
        dropped_deadline += st.dropped_deadline;
        batches += st.batches;
        batched += st.mean_batch_size * double(st.batches);
        makespan += st.makespan;
        busy += st.gpu_busy_seconds;
        stall += st.storage_stall_seconds;
        feature_hits += st.feature_hits;
        feature_lookups += st.feature_hits + st.feature_misses;
        embedding_hit_rate_sum += st.embedding_hit_rate;
        ++traces;
        latencies.merge(st.latencies);
    }

    double miss_frac() const
    {
        return 1.0 - double(on_time) / double(offered);
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Trace of @p requests at rung @p rung; @p stream separates the
 *  ladders' RNG streams. */
std::vector<serve::InferenceRequest>
make_trace(const serve::Server &server, uint64_t seed, uint64_t stream,
           size_t rung, int64_t requests)
{
    serve::LoadGeneratorOptions lopts;
    lopts.rate_rps = kLadder[rung].rate_rps;
    lopts.num_requests = requests;
    lopts.slo_deadline = kSloSeconds;
    lopts.seed = util::derive_seed(seed, stream, rung);
    return serve::LoadGenerator(server.popularity(), lopts).generate();
}

/** Serve @p trace once, check every response, and summarise. */
RungOutcome
serve_checked(serve::Server &server, const graph::Dataset &ds,
              const std::vector<serve::InferenceRequest> &trace,
              const std::string &what, Report &report)
{
    const std::vector<serve::InferenceResponse> responses =
        server.serve(trace);
    const serve::ServingStats &st = server.last_stats();
    RungOutcome o;
    bool ok = responses.size() == trace.size() &&
              st.offered == int64_t(trace.size());
    for (size_t i = 0; ok && i < responses.size(); ++i) {
        const serve::InferenceResponse &r = responses[i];
        ok = r.request_id == trace[i].id &&
             r.outcome != serve::Outcome::kUnprocessed;
        if (r.outcome == serve::Outcome::kServed ||
            r.outcome == serve::Outcome::kEmbeddingHit)
            ++o.on_time;
        // With logits on, batch-served requests carry one in-range
        // class per target.
        if (ok && r.batch_id >= 0 && server.options().compute_logits) {
            ok = r.predicted.size() == trace[i].targets.size();
            for (int c : r.predicted)
                ok = ok && c >= 0 && c < ds.features.num_classes();
        }
    }
    report.check(ok && o.on_time == st.served - st.served_late,
                 what + ": every request answered, predictions valid");
    o.fingerprint = st.fingerprint;
    o.offered = st.offered;
    o.served = st.served;
    o.shed_queue = st.shed_queue;
    o.dropped_deadline = st.dropped_deadline;
    o.batches = st.batches;
    o.mean_batch_size = st.mean_batch_size;
    o.p50 = st.p50_latency;
    o.p99 = st.p99_latency;
    o.goodput_rps = st.goodput_rps;
    o.feature_hit_rate = st.feature_hit_rate;
    o.embedding_hit_rate = st.embedding_hit_rate;
    o.gpu_utilization = st.gpu_utilization;
    o.storage_stall_s = st.storage_stall_seconds;
    return o;
}

/** A step is one serve() call: a host-ladder rung, or — once, after
 *  the first host pass — an SLO-ladder rung. The first host pass is a
 *  warm-up. */
class ServeScenario final : public Scenario
{
  public:
    ServeScenario(const Workload &w, const graph::Dataset &ds,
                  serve::Server &server, serve::Server &modelled,
                  const RunOptions &run, Report &report)
        : ds_(ds), server_(server), modelled_(modelled), run_(run),
          report_(report)
    {
        uint64_t stream = 4;
        for (size_t r = 0; r < kLadder.size(); ++r) {
            host_traces_.push_back(make_trace(server, w.server.seed, 3, r,
                                              kLadder[r].host_requests));
            pass_requests_ += kLadder[r].host_requests;
            for (int k = 0; k < kLadder[r].slo_traces; ++k)
                slo_steps_.push_back(
                    {r, make_trace(server, w.server.seed, stream++, r,
                                   kLadder[r].slo_requests)});
        }
    }

    void
    step() override
    {
        if (passes_ >= 1 && slo_done_ < slo_steps_.size()) {
            const SloStep &step = slo_steps_[slo_done_++];
            serve_checked(modelled_, ds_, step.trace,
                          std::string("SLO ladder ") + kLadder[step.rung].tag,
                          report_);
            slo_[step.rung].add(modelled_.last_stats());
            return;
        }
        const size_t r = rung_;
        const std::string what = std::string("host ladder ") +
                                 kLadder[r].tag + " pass " +
                                 std::to_string(passes_);
        auto call = [&] {
            return serve_checked(server_, ds_, host_traces_[r], what,
                                 report_);
        };
        const Clock::time_point t0 = Clock::now();
        const RungOutcome o =
            run_.trace ? tracer_.span("serve", call) : call();
        pass_s_ += seconds_since(t0);
        if (passes_ == 0)
            host_[r] = o;
        else
            report_.check(o == host_[r],
                          what + ": fingerprint and modelled statistics "
                                 "identical");
        const serve::ServingStats &st = server_.last_stats();
        sample_s_ += st.worker_sample_seconds.mean() *
                     double(st.worker_sample_seconds.count());
        samples_ += static_cast<int64_t>(st.worker_sample_seconds.count());
        compute_s_ += st.compute_seconds;
        compute_batches_ += st.compute_batches;
        pushed_ += st.work_queue.pushed;
        push_blocked_ += st.work_queue.push_blocked;
        pop_blocked_ += st.work_queue.pop_blocked;
        if (++rung_ == kLadder.size()) {
            // Pass 0 also pays the Server's lazy set-up (thread pools,
            // gather arenas); it is checked but not timed.
            if (passes_ > 0)
                rates_.push_back(double(pass_requests_) / pass_s_);
            pass_s_ = 0.0;
            rung_ = 0;
            ++passes_;
        }
    }

    bool
    enough() const override
    {
        return passes_ >= 3 && slo_done_ == slo_steps_.size();
    }

    void
    finish() override
    {
        // Logits only add predictions: with them off, the same trace
        // must give the same virtual world, fingerprint aside.
        RungOutcome on = host_[kSloRung];
        RungOutcome off = serve_checked(modelled_, ds_,
                                        host_traces_[kSloRung],
                                        "logits-off host trace", report_);
        on.fingerprint = off.fingerprint = 0;
        report_.check(on == off, "logits on and off give the same modelled "
                                 "serving statistics");
        if (run_.trace)
            per_module_metrics();
        else
            end_to_end_metrics();
    }

  private:
    void
    end_to_end_metrics()
    {
        double max_rate = 0.0;
        for (size_t r = 0; r < kLadder.size(); ++r)
            if (1.0 - slo_[r].miss_frac() >= kOnTimeTarget)
                max_rate = kLadder[r].rate_rps;
        SloTotals &slo = slo_[kSloRung];
        const SloTotals &overload = slo_[kGoodputRung];
        print_samples("serve.host_rps", rates_);
        report_.metric("serve.host_rps", median(rates_), "1/s");
        report_.metric("serve.p50_ms", 1e3 * slo.latencies.percentile(50.0),
                       "ms");
        report_.metric("serve.p99_ms", 1e3 * slo.latencies.percentile(99.0),
                       "ms");
        report_.metric("serve.slo_miss_frac", slo.miss_frac(), "frac");
        report_.metric("serve.goodput_rps",
                       ratio(double(overload.on_time), overload.makespan),
                       "1/s");
        report_.metric("serve.max_rate_at_slo_rps", max_rate, "1/s");
    }

    void
    per_module_metrics()
    {
        std::fprintf(stderr, "serve spans:\n%s", tracer_.summary().c_str());
        Report &r = report_;
        r.metric("sample.serve_host_us_per_req",
                 1e6 * ratio(sample_s_, double(samples_)), "us");
        r.metric("compute.serve_forward_host_ms_per_batch",
                 1e3 * ratio(compute_s_, double(compute_batches_)), "ms");
        const SloTotals &slo = slo_[kSloRung];
        r.metric("match.serve_feature_hit_rate",
                 ratio(double(slo.feature_hits), double(slo.feature_lookups)),
                 "frac");
        r.metric("store.serve_stall_frac", ratio(slo.stall, slo.busy),
                 "frac");
        for (size_t k = 0; k < kLadder.size(); ++k) {
            const std::string tag = kLadder[k].tag;
            const SloTotals &o = slo_[k];
            r.metric("serve.mean_batch_size." + tag,
                     ratio(o.batched, double(o.batches)), "count");
            r.metric("serve.embedding_hit_rate." + tag,
                     o.embedding_hit_rate_sum / o.traces, "frac");
            r.metric("serve.gpu_utilization." + tag, ratio(o.busy, o.makespan),
                     "frac");
            r.metric("serve.shed_queue." + tag, double(o.shed_queue), "count");
            r.metric("serve.dropped_deadline." + tag,
                     double(o.dropped_deadline), "count");
        }
        r.metric("serve.work_queue_push_blocked_frac",
                 ratio(double(push_blocked_), double(pushed_)), "frac");
        r.metric("serve.work_queue_pop_blocked_frac",
                 ratio(double(pop_blocked_), double(pushed_)), "frac");
    }

    struct SloStep
    {
        size_t rung;
        std::vector<serve::InferenceRequest> trace;
    };

    const graph::Dataset &ds_;
    serve::Server &server_;
    serve::Server &modelled_;
    const RunOptions &run_;
    Report &report_;
    std::vector<std::vector<serve::InferenceRequest>> host_traces_;
    std::vector<SloStep> slo_steps_;
    int64_t pass_requests_ = 0;
    size_t rung_ = 0;
    int passes_ = 0;
    size_t slo_done_ = 0;
    double pass_s_ = 0.0;
    std::array<RungOutcome, kLadder.size()> host_;
    std::array<SloTotals, kLadder.size()> slo_;
    std::vector<double> rates_;
    Tracer tracer_;
    double sample_s_ = 0.0;
    double compute_s_ = 0.0;
    int64_t samples_ = 0;
    int64_t compute_batches_ = 0;
    uint64_t pushed_ = 0;
    uint64_t push_blocked_ = 0;
    uint64_t pop_blocked_ = 0;
};

} // namespace

std::unique_ptr<Scenario>
make_serve_scenario(const Workload &w, const graph::Dataset &ds,
                    serve::Server &server, serve::Server &modelled,
                    const RunOptions &run, Report &report)
{
    return std::make_unique<ServeScenario>(w, ds, server, modelled, run,
                                           report);
}

void
check_serve_seed(const Workload &w, const graph::Dataset &ds, Report &report)
{
    serve::Server server(ds, w.server);
    const std::vector<serve::InferenceRequest> trace =
        make_trace(server, w.server.seed, 3, kSloRung, 512);
    const RungOutcome a =
        serve_checked(server, ds, trace, "second seed serve", report);
    const RungOutcome b =
        serve_checked(server, ds, trace, "second seed serve again", report);
    report.check(a == b, "second seed: serve fingerprint repeats");
}

} // namespace perfbench
