#include "online/speculative.h"

#include "globalplan/global_plan.h"

namespace dsm {

Result<SpeculationReport> SpeculativeViewAdvisor::MaybeSpeculate() {
  SpeculationReport report;
  const PlannerContext& ctx = planner_->context();

  for (const auto& [tables, pending] : planner_->tracker().PendingSets()) {
    if (views_created_ >= options_.max_views) break;
    if (ctx.global_plan->HasUnpredicatedView(tables)) continue;

    // Build the subexpression as an unpredicated sharing delivered to the
    // home server of its lowest table (a provider-internal view needs no
    // buyer-side copy).
    DSM_ASSIGN_OR_RETURN(const ServerId dest,
                         ctx.cluster->HomeOf(tables.ToVector().front()));
    const Sharing view(tables, {}, dest, "provider-speculative");

    DSM_ASSIGN_OR_RETURN(const PlanSpace space,
                         ctx.enumerator->Enumerate(view));
    const GlobalPlan::SpaceEvaluation evals =
        ctx.global_plan->EvaluateSpace(space);
    const int best = evals.CheapestFeasible();
    if (best < 0) continue;
    const double cheapest =
        evals.plans[static_cast<size_t>(best)].marginal_cost;
    if (pending < options_.regret_multiple * cheapest) continue;

    const SharingId id = kSpeculativeIdBase + views_created_;
    DSM_RETURN_IF_ERROR(ctx.global_plan
                            ->Commit(id, view, space, evals,
                                     static_cast<size_t>(best), evals.lpc)
                            .status());
    planner_->mutable_tracker()->MarkProduced(tables);
    ++views_created_;
    ++report.views_created;
    report.cost_added += cheapest;
  }
  return report;
}

}  // namespace dsm
