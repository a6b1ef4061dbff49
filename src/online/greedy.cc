#include "online/greedy.h"

namespace dsm {

double GreedyPlanner::Score(const Sharing& /*sharing*/,
                            const PlanSpace& /*space*/,
                            const GlobalPlan::SpaceEvaluation& eval,
                            size_t k) {
  return -eval.plans[k].marginal_cost;
}

}  // namespace dsm
