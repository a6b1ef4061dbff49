#include "online/managed_risk.h"

#include "obs/metrics.h"

namespace dsm {

int ManagedRiskPlanner::EffectiveJoins(const Sharing& sharing) const {
  // With divide_by_joins disabled (ablation), the divisor is forced to 1.
  return options_.divide_by_joins ? sharing.NumJoins() : 2;
}

double ManagedRiskPlanner::JoinIncentive(const Sharing& sharing,
                                         const ViewKey& key) const {
  const double rg = tracker_.Regret(key.tables, EffectiveJoins(sharing));
  if (rg <= 0.0) return 0.0;
  const double perc = options_.use_perc ? ctx_.model->Perc(key) : 1.0;
  return rg * perc;
}

double ManagedRiskPlanner::Score(const Sharing& sharing,
                                 const PlanSpace& space,
                                 const GlobalPlan::SpaceEvaluation& eval,
                                 size_t k) {
  DSM_METRIC_COUNTER_ADD("dsm.online.risk_scores", 1);
  double incentive = 0.0;
  for (const GlobalPlan::SpaceEvaluation::Step& step : eval.steps_of(k)) {
    const PlanSpace::Fragment& frag = space.fragment(step.fragment);
    if (frag.is_join() && step.state == GlobalPlan::NodeDecision::kFresh) {
      incentive += JoinIncentive(sharing, space.key(frag));
    }
  }
  if (incentive > 0.0) {
    DSM_METRIC_COUNTER_ADD("dsm.online.risk_incentive_plans", 1);
  }
  return incentive - eval.plans[k].marginal_cost;
}

void ManagedRiskPlanner::OnPlanChosen(const GlobalPlan::SharingRecord& rec) {
  const Sharing& sharing = rec.sharing;
  const SharingPlan& plan = rec.plan;
  double consumed = 0.0;
  std::vector<TableSet> produced_full;
  std::vector<std::pair<TableSet, double>> produced_partial;
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    const PlanNode& node = plan.nodes[i];
    if (!node.is_join()) continue;
    if (rec.decisions[i].state != GlobalPlan::NodeDecision::kFresh) {
      continue;  // reused/skipped nodes produce nothing new
    }
    if (options_.subtract_consumed_regret) {
      consumed += JoinIncentive(sharing, node.key);
    }
    if (node.key.predicates.empty()) {
      produced_full.push_back(node.key.tables);
    } else {
      produced_partial.emplace_back(node.key.tables,
                                    ctx_.model->Perc(node.key));
    }
  }
  tracker_.OnPlanChosen(sharing, rec.marginal_cost, consumed, produced_full,
                        produced_partial);
}

}  // namespace dsm
