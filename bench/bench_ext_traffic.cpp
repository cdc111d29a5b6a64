/**
 * @file
 * Extension validation: traffic realism — the per-stage profiler, the
 * closed-loop client pool, arrival traces, and the profiler-driven
 * sampler-pool autoscaler. Self-checks the load-bearing claims and
 * exits non-zero when any fails:
 *
 *  (a) profiling is observation only: serving fingerprints are
 *      bit-identical with profiling on or off at 1/4/8 host workers;
 *  (b) the closed loop self-throttles: at matched nominal offered
 *      load, the finite client pool sheds strictly less than the
 *      open-loop Poisson trace (which keeps offering during overload);
 *  (c) the autoscaler pays: under a flash crowd, growing the sampler
 *      pool cuts SLO misses (late + shed + dropped) versus the fixed
 *      minimum-size pool, and reports its scale-up lag;
 *  (d) scaling never violates paid-tier isolation: in both the fixed
 *      and autoscaled runs, each class sheds no more than the class
 *      below it (paid <= standard <= best-effort);
 *  (e) determinism is divergence-fatal: every configuration replays
 *      bit-identically, and the closed-loop and autoscaled runs also
 *      sweep host worker counts.
 *
 * Emits a single JSON object on stdout (tools/ci.sh archives it as
 * BENCH_traffic.json). Pass --smoke for a seconds-long run.
 */
#include <array>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "fastgl.h"
#include "harness.h"

namespace {

using namespace fastgl;

struct RunRow
{
    uint64_t fingerprint = 0;
    uint64_t profile_fp = 0;
    int64_t offered = 0;
    int64_t served = 0;
    int64_t served_late = 0;
    int64_t shed = 0;
    int64_t dropped = 0;
    double shed_rate = 0.0;
    double p99 = 0.0;
    double goodput = 0.0;
    double makespan = 0.0;
    int64_t slo_misses = 0;
    std::array<double, serve::kNumPriorityClasses> class_shed_rate = {
        0.0, 0.0, 0.0};
    serve::AutoscaleReport autoscale;
    size_t events = 0;
};

RunRow
to_row(const serve::ServingStats &st)
{
    RunRow row;
    row.fingerprint = st.fingerprint;
    row.profile_fp = st.profile.enabled ? st.profile.fingerprint() : 0;
    row.offered = st.offered;
    row.served = st.served;
    row.served_late = st.served_late;
    row.shed = st.shed_queue;
    row.dropped = st.dropped_deadline;
    row.shed_rate = st.shed_rate;
    row.p99 = st.p99_latency;
    row.goodput = st.goodput_rps;
    row.makespan = st.makespan;
    row.slo_misses = st.served_late + st.shed_queue +
                     st.dropped_deadline;
    for (size_t c = 0; c < serve::kNumPriorityClasses; ++c)
        row.class_shed_rate[c] = st.per_class[c].shed_rate;
    row.autoscale = st.autoscale;
    row.events = st.autoscale.events.size();
    return row;
}

void
write_run(util::JsonWriter &w, const char *name, const RunRow &row)
{
    w.key(name).begin_object();
    w.key("fingerprint").hash(row.fingerprint);
    w.key("offered").integer(row.offered);
    w.key("served").integer(row.served);
    w.key("served_late").integer(row.served_late);
    w.key("shed").integer(row.shed);
    w.key("dropped").integer(row.dropped);
    w.key("shed_rate").fixed(row.shed_rate, 4);
    w.key("p99_s").fixed(row.p99, 6);
    w.key("goodput_rps").fixed(row.goodput, 1);
    w.key("slo_misses").integer(row.slo_misses);
    w.end_object();
}

bool
class_order_preserved(const RunRow &row)
{
    // Paid sheds no more than standard, standard no more than
    // best-effort: the admission weights' whole point.
    return row.class_shed_rate[0] <= row.class_shed_rate[1] &&
           row.class_shed_rate[1] <= row.class_shed_rate[2];
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke = bench::parse_smoke(argc, argv);

    graph::ReplicaOptions ropts;
    ropts.materialize_features = false;
    ropts.size_factor = smoke ? 0.15 : 0.3;
    const graph::Dataset ds =
        graph::load_replica(graph::DatasetId::kProducts, ropts);

    const int64_t open_requests = smoke ? 1024 : 2048;
    const int64_t flash_requests = smoke ? 2048 : 4096;

    auto base_server = [] {
        serve::ServerOptions opts;
        opts.worker_threads = 2;
        opts.seed = 11;
        return opts;
    };

    auto run_open = [&](const serve::ServerOptions &sopts,
                        const serve::LoadGeneratorOptions &lopts) {
        serve::Server server(ds, sopts);
        serve::LoadGenerator gen(server.popularity(), lopts);
        server.serve(gen.generate());
        return to_row(server.last_stats());
    };
    auto run_closed = [&](const serve::ServerOptions &sopts,
                          const serve::LoadGeneratorOptions &lopts,
                          const serve::ClosedLoopOptions &copts) {
        serve::Server server(ds, sopts);
        serve::LoadGenerator gen(server.popularity(), lopts);
        server.serve_closed(gen.generate_closed(copts));
        return to_row(server.last_stats());
    };

    bool deterministic = true;
    auto check_same = [&deterministic](const char *what,
                                       const RunRow &a,
                                       const RunRow &b) {
        if (a.fingerprint != b.fingerprint || a.events != b.events) {
            std::fprintf(stderr, "replay divergence: %s\n", what);
            deterministic = false;
        }
    };

    // ---- (a) profiling is observation only, at any host width. ----
    serve::LoadGeneratorOptions steady;
    steady.rate_rps = 4000.0;
    steady.num_requests = open_requests;
    steady.slo_deadline = 50e-3;
    steady.seed = 13;
    bool profile_transparent = true;
    uint64_t profile_fp = 0;
    for (int workers : {1, 4, 8}) {
        serve::ServerOptions off = base_server();
        off.worker_threads = workers;
        serve::ServerOptions on = off;
        on.profile = true;
        const RunRow row_off = run_open(off, steady);
        const RunRow row_on = run_open(on, steady);
        if (row_off.fingerprint != row_on.fingerprint) {
            std::fprintf(stderr,
                         "profile on/off divergence at %d workers\n",
                         workers);
            profile_transparent = false;
        }
        if (profile_fp == 0)
            profile_fp = row_on.profile_fp;
        else if (row_on.profile_fp != profile_fp) {
            std::fprintf(stderr,
                         "profile report drifted at %d workers\n",
                         workers);
            profile_transparent = false;
        }
    }

    // ---- (b) closed loop self-throttles at matched offered load ----
    // Open loop: keep offering 30k rps into a server that cannot keep
    // up — admission shedding is what protects the tail. Closed loop:
    // the same nominal rate from a finite pool (clients / think), so
    // overload shows up as latency instead of refusals.
    serve::LoadGeneratorOptions burst = steady;
    burst.rate_rps = 30000.0;
    burst.num_requests = open_requests;
    burst.slo_deadline = 20e-3;
    const RunRow open_row = run_open(base_server(), burst);
    check_same("open-loop", open_row, run_open(base_server(), burst));

    const int clients = 32;
    serve::ClosedLoopOptions copts;
    copts.num_clients = clients;
    copts.requests_per_client = open_requests / clients;
    copts.think_time = double(clients) / burst.rate_rps;
    RunRow closed_row;
    {
        uint64_t reference = 0;
        for (int workers : {1, 2, 4}) {
            serve::ServerOptions sopts = base_server();
            sopts.worker_threads = workers;
            const RunRow row = run_closed(sopts, burst, copts);
            if (reference == 0) {
                reference = row.fingerprint;
                closed_row = row;
            } else if (row.fingerprint != reference) {
                std::fprintf(stderr,
                             "closed-loop divergence at %d workers\n",
                             workers);
                deterministic = false;
            }
        }
    }
    const bool closed_sheds_less =
        open_row.shed_rate > 0.0 &&
        closed_row.shed_rate < open_row.shed_rate;

    // ---- (c)/(d) flash crowd: fixed minimum pool vs autoscaler ----
    // The flash scenario is built so the *sampler pool* is the binding
    // constraint, not the device: four modelled GPUs and wide batches
    // multiply device capacity past what one sampler worker (a few
    // microseconds per request) can feed, and admission shedding is
    // off so pool backlog surfaces as SLO lateness instead of being
    // clipped at the front door.
    serve::LoadGeneratorOptions flash;
    flash.rate_rps = 20000.0;
    flash.trace = serve::ArrivalTrace::kFlashCrowd;
    flash.flash_start = 5e-3;
    flash.flash_duration = 25e-3;
    flash.flash_multiplier = 10.0;
    flash.num_requests = flash_requests;
    flash.slo_deadline = 2.8e-3;
    flash.class_mix = {0.2, 0.6, 0.2};
    flash.seed = 13;

    auto flash_server = [&](bool autoscale) {
        serve::ServerOptions opts = base_server();
        opts.num_gpus = 4;
        opts.batcher.max_batch = 128;
        opts.admission.max_pending = 0;
        opts.admission.early_drop = false;
        opts.embedding.capacity_rows = 0;
        if (autoscale) {
            opts.autoscale.enabled = true;
            opts.autoscale.min_workers = 1;
            opts.autoscale.max_workers = 8;
            opts.autoscale.wait_high = 0.2e-3;
        } else {
            opts.modelled_samplers = 1;
        }
        return opts;
    };

    const RunRow fixed_row = run_open(flash_server(false), flash);
    check_same("flash-fixed", fixed_row,
               run_open(flash_server(false), flash));
    RunRow auto_row;
    {
        uint64_t reference = 0;
        for (int workers : {1, 2, 4}) {
            serve::ServerOptions sopts = flash_server(true);
            sopts.worker_threads = workers;
            const RunRow row = run_open(sopts, flash);
            if (reference == 0) {
                reference = row.fingerprint;
                auto_row = row;
            } else if (row.fingerprint != reference ||
                       row.events != auto_row.events) {
                std::fprintf(stderr,
                             "autoscale divergence at %d workers\n",
                             workers);
                deterministic = false;
            }
        }
    }
    const bool autoscaler_scaled = auto_row.events > 0;
    const bool autoscale_cuts_misses =
        auto_row.slo_misses < fixed_row.slo_misses;
    const bool paid_isolation = class_order_preserved(fixed_row) &&
                                class_order_preserved(auto_row);

    const bool ok = profile_transparent && closed_sheds_less &&
                    autoscaler_scaled && autoscale_cuts_misses &&
                    paid_isolation && deterministic;

    util::JsonWriter w;
    w.begin_object();
    w.key("bench").string("traffic");
    w.key("smoke").boolean(smoke);
    w.key("dataset").string(ds.name);
    w.key("profile_fingerprint").hash(profile_fp);
    w.key("loops").begin_object();
    write_run(w, "open", open_row);
    write_run(w, "closed", closed_row);
    w.end_object();
    w.key("flash").begin_object();
    write_run(w, "fixed_pool", fixed_row);
    write_run(w, "autoscaled", auto_row);
    w.key("scale_events").integer(auto_row.events);
    w.key("final_workers").integer(auto_row.autoscale.final_workers);
    w.key("first_pressure_s")
        .fixed(auto_row.autoscale.first_pressure_at, 6);
    w.key("scale_up_lag_s").fixed(auto_row.autoscale.scale_up_lag, 6);
    w.end_object();
    w.key("checks").begin_object();
    w.key("profile_on_off_bit_identical").boolean(profile_transparent);
    w.key("closed_loop_sheds_less_than_open").boolean(closed_sheds_less);
    w.key("autoscaler_scaled_up").boolean(autoscaler_scaled);
    w.key("autoscale_cuts_slo_misses").boolean(autoscale_cuts_misses);
    w.key("paid_tier_isolation_preserved").boolean(paid_isolation);
    w.key("deterministic_across_runs_and_widths").boolean(deterministic);
    w.end_object();
    w.key("ok").boolean(ok);
    w.end_object();
    return bench::finish(w, ok);
}
