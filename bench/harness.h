/**
 * @file
 * The one measurement harness of the gated `bench_ext_*` binaries: the
 * `--smoke` parser, the A/B timer behind every before/after speedup, and
 * the divergence witness that makes a replica mismatch fatal. Archives
 * are written with util::JsonWriter.
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/stats.h"
#include "util/timer.h"

namespace fastgl {
namespace bench {

/** True for `--smoke` (a seconds-long run), false for no argument;
 *  anything else is a usage error (exit 2). */
inline bool
parse_smoke(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") != 0) {
            std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
            std::exit(2);
        }
    }
    return argc > 1;
}

/** Host seconds of one side: median and quartiles over the trials. */
struct Spread
{
    double median = 0.0, q1 = 0.0, q3 = 0.0;

    double iqr() const { return q3 - q1; }
};

/** Untimed warmup calls per side, then timed trials. */
struct Trials
{
    int warmup = 1;
    int trials = 5;
};

/**
 * Time @p a against @p b: @p t.warmup untimed calls of each, then
 * @p t.trials trials that alternate which side runs first, so neither
 * side always inherits the other's cache state.
 */
template <typename A, typename B>
std::pair<Spread, Spread>
time_ab(Trials t, A &&a, B &&b)
{
    for (int i = 0; i < t.warmup; ++i) {
        a();
        b();
    }
    util::SampleStat seconds[2];
    auto timed = [&seconds](int side, auto &f) {
        const util::WallTimer timer;
        f();
        seconds[side].add(timer.elapsed_seconds());
    };
    for (int i = 0; i < t.trials; ++i) {
        if (i % 2 == 0) {
            timed(0, a);
            timed(1, b);
        } else {
            timed(1, b);
            timed(0, a);
        }
    }
    auto spread = [](util::SampleStat &s) {
        const double ps[] = {25.0, 50.0, 75.0};
        const std::vector<double> q = s.percentiles(ps);
        return Spread{q[1], q[0], q[2]};
    };
    return {spread(seconds[0]), spread(seconds[1])};
}

/** One side alone, timed like time_ab. */
template <typename F>
Spread
time_trials(Trials t, F &&f)
{
    return time_ab(t, f, [] {}).first;
}

/** Write `"<name>": median, "<name>_iqr": q3 - q1` (seconds). */
inline void
write_spread(util::JsonWriter &w, const std::string &name, const Spread &s)
{
    w.key(name).fixed(s.median, 9);
    w.key(name + "_iqr").fixed(s.iqr(), 9);
}

/** @p num / @p den, or 0 when the denominator is not positive. */
inline double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Print @p archive to stdout; return the exit code, 0 iff @p ok. */
inline int
finish(const util::JsonWriter &archive, bool ok)
{
    std::printf("%s\n", archive.str().c_str());
    return ok ? 0 : 1;
}

/**
 * Divergence witness: records every replica-vs-live comparison. One
 * mismatch poisons the run, so the bench exits non-zero and its
 * speedups are never read as comparing equal work.
 */
class Witness
{
  public:
    /** Record one comparison; @return @p identical. */
    bool
    check(bool identical)
    {
        diverged_ |= !identical;
        return identical;
    }

    bool check(uint64_t want, uint64_t got) { return check(want == got); }

    /** finish(), failing with a FATAL line on any divergence. */
    int
    finish(const util::JsonWriter &archive) const
    {
        if (diverged_)
            std::fprintf(stderr, "FATAL: legacy replica output diverged "
                                 "from the live implementation\n");
        return bench::finish(archive, !diverged_);
    }

  private:
    bool diverged_ = false;
};

} // namespace bench
} // namespace fastgl
