#include "online/replanner.h"

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

      DSM_ASSIGN_OR_RETURN(const PlanSpace space,
                           ctx_.enumerator->Enumerate(sharing));
      // The original plan stays unless a plan is strictly cheaper; either
      // way the commit applies the evaluation the choice was made on.
      const PlanSpace orig_space = PlanSpace::Of(original, ctx_.model);
      const GlobalPlan::SpaceEvaluation orig_eval =
          gp->EvaluateSpace(orig_space);
      const GlobalPlan::SpaceEvaluation evals = gp->EvaluateSpace(space);
      const int best = evals.CheapestFeasible(
          orig_eval.plans[0].feasible
              ? orig_eval.plans[0].marginal_cost
              : std::numeric_limits<double>::infinity());
      // No plans leaves no LPC to record; costing then prices it afresh.
      const std::optional<double> priced =
          space.empty() ? std::nullopt : std::optional<double>(evals.lpc);
      DSM_RETURN_IF_ERROR(
          (best < 0 ? gp->Commit(id, sharing, orig_space, orig_eval, 0, priced)
                    : gp->Commit(id, sharing, space, evals,
                                 static_cast<size_t>(best), priced))
              .status());
      if (best >= 0) {
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
