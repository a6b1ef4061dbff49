// Algorithm GREEDY (Section 4.2), the baseline from prior work [9]:
// among all plans for the new sharing, choose the one adding the smallest
// additional dollar cost to the global plan. Takes no risk — and can be
// arbitrarily worse than optimal (Example 4.1).

#ifndef DSM_ONLINE_GREEDY_H_
#define DSM_ONLINE_GREEDY_H_

#include "online/planner.h"

namespace dsm {

class GreedyPlanner : public OnlinePlanner {
 public:
  explicit GreedyPlanner(PlannerContext context)
      : OnlinePlanner(context) {}

  const char* name() const override { return "Greedy"; }

 protected:
  double Score(const Sharing& sharing, const PlanSpace& space,
               const GlobalPlan::SpaceEvaluation& eval, size_t k) override;
};

}  // namespace dsm

#endif  // DSM_ONLINE_GREEDY_H_
