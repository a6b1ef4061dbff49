// OnlinePlanner: the online sharing-plan selection loop (Definition 4.1).
//
// Each arriving sharing is planned without knowledge of future sharings:
// the planner enumerates the sharing's possible plans, scores each after a
// dry-run integration into the global plan, and commits the best-scoring
// plan that violates no server capacity (Algorithm 2); if none is feasible
// the sharing is rejected. Subclasses differ only in the scoring rule:
// GREEDY, NORMALIZE and MANAGEDRISK from Section 4.
//
// The plans arrive as a PlanSpace and are dry-run together
// (GlobalPlan::EvaluateSpace: each shared sub-plan priced and probed for
// reuse once); scorers fold over each plan's (node, decision) walk, and
// GlobalPlan::Commit applies the chosen plan's evaluation, as it does an
// identical-sharing hit's evaluation of its stored plan.
//
// A sharing identical to one planned before — equal DeliveredQuery: the
// same query (ViewKey) to the same destination — skips enumeration and
// commits the stored plan with the stored LPC.
//
// One rejection needs no dry run: when a down server makes every plan
// infeasible (dead destination, or a dead base-table home no live view
// covers — GlobalPlan::LivenessRulesOut), the sharing is rejected with
// kCapacityExceeded before enumeration, exactly as the full path would.
//
// Planning is single-threaded: the candidates are dry-run against the
// global plan, then scored in index order. Cost models may draw memoized
// costs in first-query order, so this order is part of the decision.

#ifndef DSM_ONLINE_PLANNER_H_
#define DSM_ONLINE_PLANNER_H_

#include <string>
#include <unordered_map>

#include "catalog/catalog.h"
#include "cluster/cluster.h"
#include "common/status.h"
#include "cost/cost_model.h"
#include "globalplan/global_plan.h"
#include "plan/enumerator.h"
#include "plan/join_graph.h"
#include "plan/plan.h"
#include "sharing/sharing.h"

namespace dsm {

// Shared, externally owned infrastructure the planner operates on.
struct PlannerContext {
  const Catalog* catalog = nullptr;
  const Cluster* cluster = nullptr;
  const JoinGraph* graph = nullptr;
  CostModel* model = nullptr;
  GlobalPlan* global_plan = nullptr;
  PlanEnumerator* enumerator = nullptr;
};

// True when `sharing` is one the enumerator accepts and cluster liveness
// alone makes every plan of it infeasible (GlobalPlan::LivenessRulesOut).
// An invalid sharing is never ruled out, so it still reaches Enumerate and
// gets its validation error.
bool LivenessRulesOut(const PlannerContext& ctx, const Sharing& sharing);

struct PlanChoice {
  SharingId id = 0;
  SharingPlan plan;
  double marginal_cost = 0.0;  // $ the sharing added to the global plan
  double score = 0.0;
  size_t plans_considered = 0;
  // True when an identical sharing had been planned before and its plan was
  // reused wholesale without enumeration (Section 6.2.2's observation that
  // repeated sharings "don't need to be processed").
  bool reused_identical = false;
};

class OnlinePlanner {
 public:
  explicit OnlinePlanner(PlannerContext context) : ctx_(context) {}
  virtual ~OnlinePlanner() = default;

  OnlinePlanner(const OnlinePlanner&) = delete;
  OnlinePlanner& operator=(const OnlinePlanner&) = delete;

  virtual const char* name() const = 0;

  // Plans and integrates the next sharing of the online sequence.
  // Returns kCapacityExceeded if every plan violates some server capacity
  // or sits on a down server (the latter decided without enumeration).
  Result<PlanChoice> ProcessSharing(const Sharing& sharing);

  const PlannerContext& context() const { return ctx_; }

 protected:
  // Higher is better. Scores plan `k` of `space`, whose dry run is
  // eval.plans[k] with its nodes at eval.steps_of(k).
  virtual double Score(const Sharing& sharing, const PlanSpace& space,
                       const GlobalPlan::SpaceEvaluation& eval,
                       size_t k) = 0;

  // Called once per arriving sharing before planning (e.g. NORMALIZE's
  // occurrence counts, which include the current sharing).
  virtual void OnSharingArrived(const Sharing& /*sharing*/) {}

  // Called after the chosen plan has been integrated, with its record
  // (sharing, plan, per-node decisions and marginal cost).
  virtual void OnPlanChosen(const GlobalPlan::SharingRecord& /*rec*/) {}

  PlannerContext ctx_;

 private:
  // The plan chosen for a previously planned query and destination, and
  // the sharing's LPC.
  struct IdenticalEntry {
    SharingPlan plan;
    double lpc = 0.0;
  };

  SharingId next_id_ = 1;
  std::unordered_map<DeliveredQuery, IdenticalEntry, DeliveredQueryHash>
      identical_plans_;
};

}  // namespace dsm

#endif  // DSM_ONLINE_PLANNER_H_
