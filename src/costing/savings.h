// Builds a FairCost problem (entries + global cost) from a live GlobalPlan:
// LPCs and GPCs from the global plan's per-sharing records, saving(r)/num(r)
// as the global plan keeps them current (GlobalPlan::SavingShares), and the
// identity/containment partial order over the records' queries, read in
// place (no record's Sharing is copied). A record
// admitted by a planner carries its LPC; `lpc` prices the rest
// (hand-built and restored records) by enumeration.

#ifndef DSM_COSTING_SAVINGS_H_
#define DSM_COSTING_SAVINGS_H_

#include <vector>

#include "common/status.h"
#include "costing/fair_cost.h"
#include "costing/incremental_containment.h"
#include "costing/lpc.h"
#include "globalplan/global_plan.h"

namespace dsm {

struct FairCostProblem {
  std::vector<SharingId> ids;  // parallel to entries
  std::vector<FairCostEntry> entries;
  double global_cost = 0.0;
};

// Speculative provider-owned views (ids >= SpeculativeViewAdvisor's base)
// are included: they are sharings of the provider itself and their cost
// must be recovered too.
//
// When `dag_index` is non-null, the identity/containment partial order is
// taken from the persistent index (only population changes since its last
// Update are compared) instead of a scratch O(n²) BuildContainmentDag; the
// result is identical either way.
Result<FairCostProblem> BuildFairCostProblem(
    const GlobalPlan& global_plan, LpcCalculator* lpc,
    IncrementalContainmentIndex* dag_index = nullptr);

// The same problem, rebuilt over `problem` in place: its arrays keep their
// capacity, so a caller that keeps one problem across refreshes (a
// CostingSession) allocates only where the population grew.
Status BuildFairCostProblem(const GlobalPlan& global_plan,
                            LpcCalculator* lpc,
                            IncrementalContainmentIndex* dag_index,
                            FairCostProblem* problem);

}  // namespace dsm

#endif  // DSM_COSTING_SAVINGS_H_
