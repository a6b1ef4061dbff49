#include "online/normalize.h"

#include <algorithm>

namespace dsm {

int NormalizePlanner::OccurrenceCount(TableSet tables) const {
  const auto it = counts_.find(tables);
  return it == counts_.end() ? 0 : it->second;
}

void NormalizePlanner::OnSharingArrived(const Sharing& sharing) {
  for (const TableSet s :
       ctx_.graph->ConnectedSubsets(sharing.tables(), /*min_size=*/2)) {
    ++counts_[s];
  }
}

double NormalizePlanner::Score(const Sharing& /*sharing*/,
                               const PlanSpace& space,
                               const GlobalPlan::SpaceEvaluation& eval,
                               size_t k) {
  // Normalized plan cost: fresh join nodes are discounted by how many
  // sharings (so far) contain their subexpression; residual/leaf costs are
  // charged as-is.
  double normalized = 0.0;
  for (const GlobalPlan::SpaceEvaluation::Step& step : eval.steps_of(k)) {
    const GlobalPlan::NodeDecision d = eval.decision(step);
    if (d.state == GlobalPlan::NodeDecision::kSkipped) continue;
    const PlanSpace::Fragment& frag = space.fragment(step.fragment);
    double cost = d.marginal_cost;
    if (d.state == GlobalPlan::NodeDecision::kFresh && frag.is_join()) {
      cost /= std::max(1, OccurrenceCount(space.key(frag).tables));
    }
    normalized += cost;
  }
  return -normalized;
}

}  // namespace dsm
