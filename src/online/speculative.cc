#include "online/speculative.h"

#include <algorithm>
#include <limits>

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

    DSM_ASSIGN_OR_RETURN(std::vector<SharingPlan> plans,
                         ctx.enumerator->Enumerate(view));
    double cheapest = std::numeric_limits<double>::infinity();
    double lpc = std::numeric_limits<double>::infinity();
    const SharingPlan* best = nullptr;
    for (const SharingPlan& plan : plans) {
      const GlobalPlan::PlanEvaluation eval =
          ctx.global_plan->EvaluatePlan(plan);
      lpc = std::min(lpc, eval.standalone_cost);
      if (!eval.feasible) continue;
      if (eval.marginal_cost < cheapest) {
        cheapest = eval.marginal_cost;
        best = &plan;
      }
    }
    if (best == nullptr) continue;
    if (pending < options_.regret_multiple * cheapest) continue;

    const SharingId id = kSpeculativeIdBase + views_created_;
    DSM_RETURN_IF_ERROR(
        ctx.global_plan->AddSharing(id, view, *best, lpc).status());
    planner_->mutable_tracker()->MarkProduced(tables);
    ++views_created_;
    ++report.views_created;
    report.cost_added += cheapest;
  }
  return report;
}

}  // namespace dsm
