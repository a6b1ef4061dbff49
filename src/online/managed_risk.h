// Algorithm MANAGEDRISK (Sections 4.4–4.5, Algorithms 1 and 2), the
// paper's proposed online planner.
//
// Each candidate plan P for sharing S_i is scored (Eq. 3)
//
//     score(P) = Σ_{s ∈ P} rg_i(s) · perc_s(P) − C[P]
//
// where rg_i(s) is the regret of subexpression s (Definition 4.3, tracked
// by RegretTracker), perc_s(P) the fraction of s's unpredicated result the
// plan materializes, and C[P] the cost the plan adds to the global plan.
// The incentive rg makes the planner take a risk on a never-produced
// subexpression once enough prior sharings could have used it — but never
// a risk bigger than the cost of those prior sharings, avoiding both
// GREEDY's too-late and NORMALIZE's too-early failure modes.

#ifndef DSM_ONLINE_MANAGED_RISK_H_
#define DSM_ONLINE_MANAGED_RISK_H_

#include "online/planner.h"
#include "online/regret_tracker.h"

namespace dsm {

struct ManagedRiskOptions {
  // Ablation knobs for the design choices Section 4.4 calls out. Disabling
  // either reintroduces the unbounded-cost pathologies the paper warns of.
  bool subtract_consumed_regret = true;  // the "− Σ rg_j(s')" term of Eq. 1
  bool divide_by_joins = true;           // the 1/(m − 1) factor of Eq. 1
  bool use_perc = true;                  // Eq. 3's perc weighting
};

class ManagedRiskPlanner : public OnlinePlanner {
 public:
  explicit ManagedRiskPlanner(PlannerContext context,
                              ManagedRiskOptions options = {})
      : OnlinePlanner(context),
        options_(options),
        tracker_(context.graph) {}

  const char* name() const override { return "ManagedRisk"; }

  const RegretTracker& tracker() const { return tracker_; }
  RegretTracker* mutable_tracker() { return &tracker_; }

 protected:
  double Score(const Sharing& sharing, const PlanSpace& space,
               const GlobalPlan::SpaceEvaluation& eval, size_t k) override;
  void OnPlanChosen(const GlobalPlan::SharingRecord& rec) override;

 private:
  // rg_i(s)·perc_s of a join computing `key` fresh (0 without regret); a
  // plan's incentive sums it over its fresh joins in node-index order.
  double JoinIncentive(const Sharing& sharing, const ViewKey& key) const;

  int EffectiveJoins(const Sharing& sharing) const;

  ManagedRiskOptions options_;
  RegretTracker tracker_;
};

}  // namespace dsm

#endif  // DSM_ONLINE_MANAGED_RISK_H_
