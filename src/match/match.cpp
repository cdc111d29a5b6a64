#include "match/match.h"

#include <utility>

namespace fastgl {
namespace match {

TransferPlan
Matcher::plan(NodeSet next)
{
    TransferPlan plan;
    if (!has_resident_) {
        plan.load_nodes = next.sorted();
        plan.overlap_nodes = 0;
    } else {
        // LoadNodeID = next \ resident; OverlapNodeID = next ∩ resident.
        next.difference(resident_, plan.load_nodes);
        plan.overlap_nodes = next.size() - plan.load_count();
    }
    total_loaded_ += plan.load_count();
    total_reused_ += plan.overlap_nodes;
    resident_ = std::move(next);
    has_resident_ = true;
    return plan;
}

void
Matcher::reset()
{
    resident_ = NodeSet();
    has_resident_ = false;
}

} // namespace match
} // namespace fastgl
