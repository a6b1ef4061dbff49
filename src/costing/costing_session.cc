#include "costing/costing_session.h"

#include <algorithm>

#include "costing/savings.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dsm {

Result<CostingSession::Snapshot> CostingSession::Refresh() {
  DSM_METRIC_COUNTER_ADD("dsm.costing.refreshes", 1);
  FairCostProblem problem;
  {
    DSM_TRACE_SPAN("costing/build_problem");
    DSM_ASSIGN_OR_RETURN(problem, BuildFairCostProblem(*global_plan_, lpc_,
                                                       &dag_index_));
  }
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

  // Drift against the previous refresh, for sharings present in both.
  if (const Snapshot* prev = latest()) {
    for (const auto& [id, ac] : snapshot.ac) {
      const auto it = prev->ac.find(id);
      if (it == prev->ac.end()) continue;
      const double lpc = snapshot.lpc.at(id);
      if (lpc <= 0.0) continue;
      max_ac_increase_ = std::max(max_ac_increase_, (ac - it->second) / lpc);
    }
  }
  latest_.assign(1, snapshot);
  ++num_refreshes_;
  return snapshot;
}

double CostingSession::CurrentAc(SharingId id) const {
  const Snapshot* last = latest();
  if (last == nullptr) return -1.0;
  const auto it = last->ac.find(id);
  return it == last->ac.end() ? -1.0 : it->second;
}

}  // namespace dsm
