/**
 * @file
 * fastgl benchmark program. One process runs one workload:
 *
 *   fastgl_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * It builds the dataset replica and the Trainer, Pipeline and Servers of
 * the workload several times (setup_s is the median), then spends the
 * measuring budget on three interleaved scenarios — real training
 * epochs, modelled FastGL epochs and an open-loop serving ladder —
 * checks their outputs, and prints one JSON line with every metric. --trace 0 reports the
 * end-to-end metrics; --trace 1 replays the same public calls inside
 * spans and reports the per-module metrics. See README.md.
 */
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <thread>

#include "common.h"
#include "compute/kernel_engine.h"

#ifndef FASTGL_PERFBENCH_BUILD_TYPE
#define FASTGL_PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace fastgl;

namespace {

constexpr int kSetups = 3;
/** Shares of the measuring budget: train, epoch, serve. */
constexpr double kShares[] = {0.30, 0.15, 0.55};
constexpr size_t kScenarios = std::size(kShares);
/** The second workload seed the correctness checks also run on. */
constexpr uint64_t kSecondSeedOffset = 0x5EED;

bool
parse_args(int argc, char **argv, perfbench::RunOptions &run)
{
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            run.workload = value;
            have_workload = true;
        } else if (key == "--seed") {
            run.seed = std::strtoull(value, &end, 10);
        } else if (key == "--seconds") {
            run.seconds = std::strtod(value, &end);
        } else if (key == "--trace") {
            run.trace = std::strtol(value, &end, 10) != 0;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    return argc % 2 == 1 && have_workload && run.seconds > 0.0;
}

/** Process-wide lazy setup: the first kernel call picks the kernel ISA
 *  by timing the candidates; every process pays it once. */
void
warm_kernels()
{
    compute::Tensor a(4, 4), b(4, 4), c(4, 4);
    compute::KernelEngine engine(1);
    engine.gemm(a, b, c);
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions run;
    if (!parse_args(argc, argv, run)) {
        std::fprintf(stderr,
                     "usage: %s --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1>\n",
                     argv[0]);
        return 2;
    }
    const std::optional<perfbench::Workload> workload =
        perfbench::make_workload(run.workload, run.seed);
    if (!workload) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     run.workload.c_str());
        return 2;
    }
    const perfbench::Workload &w = *workload;

    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("# env {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d, \"nproc\": %u, "
                "\"build_type\": \"%s\", \"compute_threads\": %d, "
                "\"gather_threads\": %d, \"serve_workers\": %d, "
                "\"serve_compute_threads\": %d, "
                "\"reorder_pool_threads\": %u}\n",
                w.name.c_str(), static_cast<unsigned long long>(run.seed),
                run.seconds, run.trace ? 1 : 0, hw,
                FASTGL_PERFBENCH_BUILD_TYPE, w.trainer.compute_threads,
                w.trainer.gather_threads, w.server.worker_threads,
                w.server.compute_threads, std::min(hw == 0 ? 2u : hw, 8u));

    // Setup: dataset build plus Trainer, Pipeline and Server
    // construction, several times; the last one is kept. The second
    // Server runs the same configuration with logits off.
    std::vector<double> setup_s, build_s;
    std::unique_ptr<graph::Dataset> ds;
    std::unique_ptr<serve::Server> server, modelled;
    serve::ServerOptions modelled_opts = w.server;
    modelled_opts.compute_logits = false;
    for (int k = 0; k < kSetups; ++k) {
        modelled.reset();
        server.reset();
        ds.reset();
        const perfbench::Clock::time_point t0 = perfbench::Clock::now();
        ds = std::make_unique<graph::Dataset>(
            graph::load_replica(w.dataset));
        build_s.push_back(perfbench::seconds_since(t0));
        {
            core::Trainer trainer(*ds, w.trainer);
            core::Pipeline pipeline(*ds, w.pipeline);
        }
        server = std::make_unique<serve::Server>(*ds, w.server);
        modelled = std::make_unique<serve::Server>(*ds, modelled_opts);
        warm_kernels();
        setup_s.push_back(perfbench::seconds_since(t0));
    }

    perfbench::Report report;
    perfbench::print_samples("setup_s", setup_s);
    if (run.trace)
        report.metric("graph.build_s", perfbench::median(build_s), "s");
    else
        report.metric("setup_s", perfbench::median(setup_s), "s");

    std::unique_ptr<perfbench::Scenario> scenarios[kScenarios] = {
        perfbench::make_train_scenario(w, *ds, run, report),
        perfbench::make_epoch_scenario(w, *ds, run, report),
        perfbench::make_serve_scenario(w, *ds, *server, *modelled, run,
                                       report)};
    // Deficit round robin on host time: step the scenario furthest
    // below its share; once the budget is spent, only those that still
    // lack repetitions.
    double used[kScenarios] = {};
    const perfbench::Clock::time_point start = perfbench::Clock::now();
    for (;;) {
        const bool spent = perfbench::seconds_since(start) >= run.seconds;
        int next = -1;
        for (int i = 0; i < int(kScenarios); ++i) {
            if (spent && scenarios[i]->enough())
                continue;
            if (next < 0 || used[i] / kShares[i] < used[next] / kShares[next])
                next = i;
        }
        if (next < 0)
            break;
        const perfbench::Clock::time_point t0 = perfbench::Clock::now();
        scenarios[next]->step();
        used[next] += perfbench::seconds_since(t0);
    }
    for (auto &scenario : scenarios)
        scenario->finish();

    const perfbench::Workload second =
        *perfbench::make_workload(w.name, run.seed + kSecondSeedOffset);
    perfbench::check_train_seed(second, *ds, report);
    perfbench::check_epoch_seed(second, *ds, report);
    perfbench::check_serve_seed(second, *ds, report);

    std::printf("%s\n", report.json().c_str());
    return 0;
}
