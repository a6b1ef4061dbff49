#include "online/replanner.h"

#include <algorithm>
#include <limits>
#include <optional>

namespace dsm {

Result<ReplanReport> Replanner::Improve() {
  GlobalPlan* gp = ctx_.global_plan;
  ReplanReport report;
  report.cost_before = gp->TotalCost();

  for (int round = 0; round < kMaxRounds; ++round) {
    const double round_start_cost = gp->TotalCost();
    bool changed = false;

    for (const SharingId id : gp->sharing_ids()) {
      const GlobalPlan::SharingRecord* rec = gp->record(id);
      if (rec == nullptr) continue;
      const Sharing sharing = rec->sharing;
      const SharingPlan original = rec->plan;

      DSM_RETURN_IF_ERROR(gp->RemoveSharing(id));

      DSM_ASSIGN_OR_RETURN(std::vector<SharingPlan> plans,
                           ctx_.enumerator->Enumerate(sharing));
      const SharingPlan* best = &original;
      double best_marginal = std::numeric_limits<double>::infinity();
      double lpc = std::numeric_limits<double>::infinity();
      {
        const GlobalPlan::PlanEvaluation orig_eval =
            gp->EvaluatePlan(original);
        if (orig_eval.feasible) best_marginal = orig_eval.marginal_cost;
      }
      for (const SharingPlan& plan : plans) {
        const GlobalPlan::PlanEvaluation eval = gp->EvaluatePlan(plan);
        lpc = std::min(lpc, eval.standalone_cost);
        if (!eval.feasible) continue;
        if (eval.marginal_cost < best_marginal) {
          best_marginal = eval.marginal_cost;
          best = &plan;
        }
      }
      // No plans leaves no LPC to record; costing then prices it afresh.
      const std::optional<double> priced =
          plans.empty() ? std::nullopt : std::optional<double>(lpc);
      DSM_RETURN_IF_ERROR(gp->AddSharing(id, sharing, *best, priced).status());
      if (best != &original) {
        ++report.plans_changed;
        changed = true;
      }
    }

    ++report.rounds;
    const double gained = round_start_cost - gp->TotalCost();
    if (!changed || gained <= kMinRelativeGain * round_start_cost) {
      break;
    }
  }

  report.cost_after = gp->TotalCost();
  return report;
}

}  // namespace dsm
