#include "online/planner.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace dsm {

bool LivenessRulesOut(const PlannerContext& ctx, const Sharing& sharing) {
  // The rule-out is the cheap test and almost always false, so it runs
  // first; validation only confirms a positive answer.
  return ctx.global_plan->LivenessRulesOut(sharing) &&
         ctx.enumerator->Validate(sharing).ok();
}

Result<PlanChoice> OnlinePlanner::ProcessSharing(const Sharing& sharing) {
  DSM_METRIC_SCOPED_LATENCY_MS("dsm.online.plan_ms");
  DSM_TRACE_SPAN("online/process_sharing");
  OnSharingArrived(sharing);

  const SharingId id = next_id_++;
  DeliveredQuery ident(sharing);

  // Fast path: an identical sharing (same query, same destination) was
  // planned before; reuse its plan wholesale. Integration makes the
  // marginal cost (near) zero since every view already exists.
  const auto it = identical_plans_.find(ident);
  if (it != identical_plans_.end()) {
    const PlanSpace single = PlanSpace::Of(it->second.plan, ctx_.model);
    const GlobalPlan::SpaceEvaluation eval =
        ctx_.global_plan->EvaluateSpace(single);
    if (eval.plans[0].feasible) {
      DSM_ASSIGN_OR_RETURN(const GlobalPlan::SharingRecord* rec,
                           ctx_.global_plan->Commit(id, sharing, single, eval,
                                                    0, it->second.lpc));
      OnPlanChosen(*rec);
      DSM_METRIC_COUNTER_ADD("dsm.online.sharings_planned", 1);
      DSM_METRIC_COUNTER_ADD("dsm.online.reuse_identical_hits", 1);
      DSM_TRACE_ANNOTATE("reused_identical", "true");
      PlanChoice choice;
      choice.id = id;
      choice.plan = rec->plan;
      choice.marginal_cost = rec->marginal_cost;
      choice.reused_identical = true;
      return choice;
    }
    // Capacity changed since; fall through to full planning.
  }

  if (LivenessRulesOut(ctx_, sharing)) {
    DSM_METRIC_COUNTER_ADD("dsm.online.liveness_rejections", 1);
    DSM_METRIC_COUNTER_ADD("dsm.online.sharings_rejected", 1);
    return Status::CapacityExceeded(
        "no feasible plan: sharing rejected (a down server rules out "
        "every plan)");
  }

  DSM_ASSIGN_OR_RETURN(const PlanSpace space,
                       ctx_.enumerator->Enumerate(sharing));
  if (space.empty()) {
    return Status::InvalidArgument("no plan found for sharing");
  }

  // Dry-run every candidate against the global plan, then Score them in
  // index order. The two passes must not interleave: a stateful cost model
  // (TableDrivenCostModel) draws memoized costs in first-query order, and
  // scorers may hold order-sensitive state (NORMALIZE's counts,
  // MANAGEDRISK's tracker and cost model).
  // The dry run also prices every plan standalone, so the sharing's LPC
  // (cheapest standalone plan, feasible or not) comes for free.
  const GlobalPlan::SpaceEvaluation evals =
      ctx_.global_plan->EvaluateSpace(space);

  struct Scored {
    size_t index;
    double score;
  };
  std::vector<Scored> scored;
  scored.reserve(space.size());
  for (size_t i = 0; i < space.size(); ++i) {
    scored.push_back(Scored{i, Score(sharing, space, evals, i)});
  }
  DSM_METRIC_COUNTER_ADD("dsm.online.plans_considered", space.size());
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) { return a.score > b.score; });

  // Algorithm 2: take plans in descending score order; use the first one
  // that does not violate any server capacity, else reject the sharing.
  for (const Scored& cand : scored) {
    if (!evals.plans[cand.index].feasible) continue;
    DSM_ASSIGN_OR_RETURN(const GlobalPlan::SharingRecord* rec,
                         ctx_.global_plan->Commit(id, sharing, space, evals,
                                                  cand.index, evals.lpc));
    OnPlanChosen(*rec);
    identical_plans_.insert_or_assign(std::move(ident),
                                      IdenticalEntry{rec->plan, evals.lpc});
    DSM_METRIC_COUNTER_ADD("dsm.online.sharings_planned", 1);
    PlanChoice choice;
    choice.id = id;
    choice.plan = rec->plan;
    choice.marginal_cost = rec->marginal_cost;
    choice.score = cand.score;
    choice.plans_considered = space.size();
    return choice;
  }
  DSM_METRIC_COUNTER_ADD("dsm.online.sharings_rejected", 1);
  return Status::CapacityExceeded(
      "no feasible plan: sharing rejected (server capacity)");
}

}  // namespace dsm
