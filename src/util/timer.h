/**
 * @file
 * The one host stopwatch: every host-time measurement in the library and
 * the benches reads a WallTimer.
 *
 * Note: simulated (modelled) GPU/PCIe time is produced by fastgl::sim, not
 * by this timer; WallTimer measures the real host cost of the algorithms
 * themselves (hash probes, set intersections, numeric training).
 */
#pragma once

#include <chrono>

namespace fastgl {
namespace util {

/** Simple monotonic stopwatch. */
class WallTimer
{
  public:
    WallTimer() { reset(); }

    /** Restart the stopwatch. */
    void reset() { start_ = Clock::now(); }

    /** Seconds since construction or the last reset(). */
    double
    elapsed_seconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

} // namespace util
} // namespace fastgl
