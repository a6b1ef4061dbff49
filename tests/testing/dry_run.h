// Test helper: one plan's dry run, reported at the plan's node indices.
//
// GlobalPlan dry-runs only whole plan spaces (EvaluateSpace). Tests that
// reason about a single plan evaluate PlanSpace::Of(plan), a space whose
// fragment i is node i, and read each step's decision back at its node
// index. RecordEvaluation reads a committed SharingRecord the same way, so
// a commit can be compared with a dry run or with the ReuseOracle.

#ifndef DSM_TESTS_TESTING_DRY_RUN_H_
#define DSM_TESTS_TESTING_DRY_RUN_H_

#include <vector>

#include "cost/cost_model.h"
#include "globalplan/global_plan.h"
#include "plan/plan.h"
#include "plan/plan_space.h"

namespace dsm {
namespace testing_support {

struct PlanEvaluation {
  double marginal_cost = 0.0;  // total additional $ (GREEDY's criterion)
  // Σ per-node op cost with no reuse, in node-index order: PlanCost's bits.
  double standalone_cost = 0.0;
  bool feasible = true;  // no work on a down server, capacities kept
  std::vector<GlobalPlan::NodeDecision> decisions;  // parallel to nodes
};

// EvaluateSpace(PlanSpace::Of(plan, model)) with each decision at its node
// index. `model` must be the one `gp` prices with, and `plan` must be a
// tree rooted at its last node (CheckPlanComputes).
inline PlanEvaluation DryRun(const GlobalPlan& gp, const SharingPlan& plan,
                             CostModel* model,
                             const GlobalPlan::AddOptions& options = {}) {
  const PlanSpace space = PlanSpace::Of(plan, model);
  const GlobalPlan::SpaceEvaluation evals = gp.EvaluateSpace(space, options);
  PlanEvaluation eval;
  eval.marginal_cost = evals.plans[0].marginal_cost;
  eval.feasible = evals.plans[0].feasible;
  eval.decisions.resize(plan.nodes.size());
  for (const GlobalPlan::SpaceEvaluation::Step& step : evals.steps_of(0)) {
    eval.decisions[static_cast<size_t>(step.fragment)] = evals.decision(step);
  }
  // Fragment order, not the walk's: a hand-built plan need not be in
  // post-order, and PlanCost sums in node-index order.
  for (const PlanSpace::Fragment& frag : space.fragments()) {
    eval.standalone_cost += frag.op_cost;
  }
  return eval;
}

// A committed record as the evaluation it applied. A record does not keep
// its plan's feasibility, so the caller supplies it.
inline PlanEvaluation RecordEvaluation(const GlobalPlan::SharingRecord& rec,
                                       bool feasible) {
  PlanEvaluation eval;
  eval.marginal_cost = rec.marginal_cost;
  for (const double cost : rec.standalone_cost) eval.standalone_cost += cost;
  eval.feasible = feasible;
  eval.decisions = rec.decisions;
  return eval;
}

}  // namespace testing_support
}  // namespace dsm

#endif  // DSM_TESTS_TESTING_DRY_RUN_H_
