/**
 * @file
 * The epoch fingerprint behind the PipelineGolden tests: FNV over every
 * EpochResult field (doubles by bit pattern) and trainer 0's per-batch
 * stage times. The golden values were captured from the single-threaded
 * sample → match → cost loop that Pipeline::run_epoch ran before the
 * overlapped stage graph became its only executor.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "core/pipeline.h"
#include "util/fingerprint.h"

namespace fastgl {
namespace reference {

/** Digest of one epoch's result and stage times. */
inline uint64_t
epoch_digest(const core::EpochResult &r,
             const std::vector<core::BatchStageTimes> &stages)
{
    using util::double_bits;
    using util::fnv;
    uint64_t h = util::kFnvOffset;
    for (double x : {r.phases.sample, r.phases.id_map, r.phases.io,
                     r.phases.compute, r.phases.allreduce,
                     r.epoch_seconds})
        h = fnv(h, double_bits(x));
    for (int64_t n : {r.batches, r.nodes_loaded, r.nodes_reused,
                      r.cache_hits})
        h = fnv(h, static_cast<uint64_t>(n));
    h = fnv(h, r.bytes_loaded);
    h = fnv(h, static_cast<uint64_t>(r.sampled_instances));
    h = fnv(h, static_cast<uint64_t>(r.unique_nodes));
    for (const core::BatchStageTimes &s : stages) {
        h = fnv(h, double_bits(s.sample));
        h = fnv(h, double_bits(s.io));
        h = fnv(h, double_bits(s.compute));
    }
    return h;
}

/** Run the next epoch of @p pipe and digest it. */
inline uint64_t
next_epoch_digest(core::Pipeline &pipe)
{
    const core::EpochResult r = pipe.run_epoch();
    return epoch_digest(r, pipe.last_epoch_stage_times());
}

} // namespace reference
} // namespace fastgl
