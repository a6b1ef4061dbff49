// LPC(S): the lowest possible cost of a sharing — the cheapest standalone
// plan, with no reuse of any other sharing's views (Section 5, criterion
// (2)). "It represents the actual complexity of S."
//
// Planners record each admitted sharing's LPC from the plans they already
// priced (GlobalPlan::SharingRecord::lpc). This calculator is the
// from-scratch path for records that carry none: plans built by hand and
// restored global plans. The memo is keyed by DeliveredQuery (query and
// destination). Each miss enumerates the sharing's plan space, takes the
// cheapest plan's standalone cost from the fragment costs the enumerator
// priced, and bumps dsm.costing.lpc_enumerations.

#ifndef DSM_COSTING_LPC_H_
#define DSM_COSTING_LPC_H_

#include <unordered_map>

#include "common/status.h"
#include "cost/cost_model.h"
#include "plan/enumerator.h"
#include "sharing/sharing.h"

namespace dsm {

class LpcCalculator {
 public:
  // `model` must be the enumerator's: the plan space arrives priced by it.
  LpcCalculator(const PlanEnumerator* enumerator, CostModel* /*model*/)
      : enumerator_(enumerator) {}

  // Minimum standalone plan cost for `sharing`. Memoized per query and
  // destination, since delivery is part of the plan.
  Result<double> Lpc(const Sharing& sharing);

 private:
  const PlanEnumerator* enumerator_;
  std::unordered_map<DeliveredQuery, double, DeliveredQueryHash> cache_;
};

}  // namespace dsm

#endif  // DSM_COSTING_LPC_H_
