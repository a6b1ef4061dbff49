#include "costing/costing_session.h"

#include <algorithm>

#include "costing/savings.h"
#include "obs/metrics.h"

namespace dsm {

Result<CostingSession::Snapshot> CostingSession::Refresh() {
  DSM_METRIC_COUNTER_ADD("dsm.costing.refreshes", 1);
  DSM_ASSIGN_OR_RETURN(const FairCostProblem problem,
                       BuildFairCostProblem(*global_plan_, lpc_, &dag_index_));
  FairCost::Options options;
  options.lpc_overrun_fallback = true;  // bill even mid-amortization
  DSM_ASSIGN_OR_RETURN(
      const FairCostResult result,
      FairCost::Compute(problem.entries, problem.global_cost, options));

  Snapshot snapshot;
  snapshot.alpha = result.alpha;
  snapshot.global_cost = problem.global_cost;
  snapshot.criteria_satisfied = result.criteria_satisfied;
  for (size_t i = 0; i < problem.ids.size(); ++i) {
    snapshot.ac[problem.ids[i]] = result.ac[i];
    snapshot.lpc[problem.ids[i]] = problem.entries[i].lpc;
  }
  history_.push_back(snapshot);
  return snapshot;
}

double CostingSession::MaxAcIncreaseFractionOfLpc() const {
  double worst = 0.0;
  for (size_t i = 1; i < history_.size(); ++i) {
    const Snapshot& prev = history_[i - 1];
    const Snapshot& cur = history_[i];
    for (const auto& [id, ac] : cur.ac) {
      const auto it = prev.ac.find(id);
      if (it == prev.ac.end()) continue;
      const auto lpc_it = cur.lpc.find(id);
      const double lpc = lpc_it == cur.lpc.end() ? 0.0 : lpc_it->second;
      if (lpc <= 0.0) continue;
      worst = std::max(worst, (ac - it->second) / lpc);
    }
  }
  return worst;
}

double CostingSession::CurrentAc(SharingId id) const {
  if (history_.empty()) return -1.0;
  const auto it = history_.back().ac.find(id);
  return it == history_.back().ac.end() ? -1.0 : it->second;
}

}  // namespace dsm
