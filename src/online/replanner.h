// Replanner: Section 7's first future-work item, implemented — "whether it
// is feasible to change the plan of an existing sharing when a new sharing
// arrives". After the online planner commits a sharing, the replanner
// revisits existing sharings one at a time: it removes a sharing from the
// global plan, re-evaluates its candidate plans against the current state,
// and keeps the cheapest; the original plan is restored when nothing
// improves. Buyers are unaffected — only the provider's internal plan
// changes (their attributed costs may drop, never their data).

#ifndef DSM_ONLINE_REPLANNER_H_
#define DSM_ONLINE_REPLANNER_H_

#include "common/status.h"
#include "online/planner.h"

namespace dsm {

struct ReplanReport {
  double cost_before = 0.0;
  double cost_after = 0.0;
  int plans_changed = 0;
  int rounds = 0;
};

class Replanner {
 public:
  explicit Replanner(PlannerContext context) : ctx_(context) {}

  // Greedily improves the global plan by re-planning existing sharings:
  // at most kMaxRounds sweeps over all sharings, stopping early once a
  // sweep changes no plan or gains no more than kMinRelativeGain of the
  // cost it started from.
  Result<ReplanReport> Improve();

 private:
  static constexpr int kMaxRounds = 2;
  static constexpr double kMinRelativeGain = 1e-6;

  PlannerContext ctx_;
};

}  // namespace dsm

#endif  // DSM_ONLINE_REPLANNER_H_
