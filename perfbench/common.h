/**
 * @file
 * Shared pieces of the fastgl benchmark program: the workload
 * description, the metric/check report printed as the final JSON line,
 * and the in-memory span tracer the traced runs use.
 *
 * Two clocks appear in every result. Host metrics are steady_clock wall
 * time of this process and vary with machine noise. Modelled metrics come
 * from the library's virtual RTX-3090 clock and are bit-identical for a
 * given workload seed, which is why the scenarios check them for exact
 * equality across repetitions.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/trainer.h"
#include "graph/datasets.h"
#include "serve/server.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Print "# name n=... median ... [values]" as a comment line, so the
 *  spread behind a reported median stays visible. */
void print_samples(const char *name, const std::vector<double> &values);

/** Parsed command line. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Library configuration of one workload (see README.md). */
struct Workload
{
    std::string name;
    fastgl::graph::DatasetId dataset;
    fastgl::core::TrainerOptions trainer;
    fastgl::core::PipelineOptions pipeline;
    fastgl::serve::ServerOptions server;
};

/** The workload called @p name with every seed derived from @p seed;
 *  empty when no workload has that name. */
std::optional<Workload> make_workload(const std::string &name,
                                      uint64_t seed);

/** Metrics and correctness checks of one run. */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** One checked operation; a false @p ok fails it and the run. */
    void check(bool ok, const std::string &what);

    /** The final result line. */
    std::string json() const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
};

/**
 * In-memory span recorder. A span has a name, a start and end on the
 * host clock and the span that caused it; self time is the duration
 * minus the time its direct children cover.
 */
class Tracer
{
  public:
    /** Open a span under the innermost open span. */
    void begin(const char *name);
    /** Close the innermost open span. */
    void end();

    /** Run @p fn inside a span called @p name. */
    template <typename Fn>
    decltype(auto)
    span(const char *name, Fn &&fn)
    {
        struct Closer
        {
            Tracer *tracer;
            ~Closer() { tracer->end(); }
        } closer{this};
        begin(name);
        return fn();
    }

    /** Summed duration and span count of @p name. */
    double total(const std::string &name) const;
    int64_t count(const std::string &name) const;
    /** Summed duration of every span whose parent is a @p name span. */
    double children_of(const std::string &name) const;

    /** Per-name count, total and self time, one line each. */
    std::string summary() const;

  private:
    struct Span
    {
        std::string name;
        int parent;
        Clock::time_point start;
        Clock::time_point end;
    };
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/**
 * One measured scenario of a workload. main() interleaves the steps
 * of all scenarios over the whole run, so slow machine drift reaches
 * every host metric alike, and each median spans the run.
 */
class Scenario
{
  public:
    virtual ~Scenario() = default;
    /** One timed unit of work (an epoch, a Pipeline, a serve call). */
    virtual void step() = 0;
    /** True once enough repetitions ran for the checks and medians. */
    virtual bool enough() const = 0;
    /** Untimed final checks; then the end-to-end metrics when
     *  untraced, the per-module metrics when traced. */
    virtual void finish() = 0;
};

// The three scenarios. @p report outlives the scenario.

std::unique_ptr<Scenario> make_train_scenario(
    const Workload &w, const fastgl::graph::Dataset &ds,
    const RunOptions &run, Report &report);

std::unique_ptr<Scenario> make_epoch_scenario(
    const Workload &w, const fastgl::graph::Dataset &ds,
    const RunOptions &run, Report &report);

/** @p server runs with real logits; @p modelled serves the same
 *  configuration with logits off. Both outlive the scenario. */
std::unique_ptr<Scenario> make_serve_scenario(
    const Workload &w, const fastgl::graph::Dataset &ds,
    fastgl::serve::Server &server, fastgl::serve::Server &modelled,
    const RunOptions &run, Report &report);

// Correctness checks on a second workload seed: untimed, on shortened
// epochs and traces.

void check_train_seed(const Workload &w, const fastgl::graph::Dataset &ds,
                      Report &report);
void check_epoch_seed(const Workload &w, const fastgl::graph::Dataset &ds,
                      Report &report);
void check_serve_seed(const Workload &w, const fastgl::graph::Dataset &ds,
                      Report &report);

} // namespace perfbench
