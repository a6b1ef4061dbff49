#include "costing/costing_session.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace dsm {

SharingValues::const_iterator SharingValues::find(SharingId id) const {
  const auto it = std::lower_bound(
      rows_.begin(), rows_.end(), id,
      [](const value_type& row, SharingId key) { return row.first < key; });
  return it != rows_.end() && it->first == id ? it : rows_.end();
}

const double& SharingValues::at(SharingId id) const {
  const auto it = find(id);
  if (it == rows_.end()) {
    throw std::out_of_range("SharingValues::at: unknown sharing id");
  }
  return it->second;
}

void SharingValues::push_back(SharingId id, double value) {
  assert(rows_.empty() || rows_.back().first < id);
  rows_.emplace_back(id, value);
}

Result<CostingSession::Snapshot> CostingSession::Refresh() {
  DSM_METRIC_COUNTER_ADD("dsm.costing.refreshes", 1);
  {
    DSM_TRACE_SPAN("costing/build_problem");
    DSM_RETURN_IF_ERROR(
        BuildFairCostProblem(*global_plan_, lpc_, &dag_index_, &problem_));
  }
  FairCost::Options options;
  options.lpc_overrun_fallback = true;  // bill even mid-amortization
  DSM_ASSIGN_OR_RETURN(
      const FairCostResult result,
      FairCost::Compute(problem_.entries, problem_.global_cost, options));

  // problem_.ids ascend (GlobalPlan::records() is in id order).
  Snapshot snapshot;
  snapshot.alpha = result.alpha;
  snapshot.global_cost = problem_.global_cost;
  snapshot.criteria_satisfied = result.criteria_satisfied;
  snapshot.ac.reserve(problem_.ids.size());
  snapshot.lpc.reserve(problem_.ids.size());
  for (size_t i = 0; i < problem_.ids.size(); ++i) {
    snapshot.ac.push_back(problem_.ids[i], result.ac[i]);
    snapshot.lpc.push_back(problem_.ids[i], problem_.entries[i].lpc);
  }

  // Drift against the previous refresh, for sharings present in both: one
  // merge of the two id-ordered lists.
  if (const Snapshot* prev = latest()) {
    auto p = prev->ac.begin();
    auto lpc = snapshot.lpc.begin();
    for (const auto& [id, ac] : snapshot.ac) {
      const double sharing_lpc = (lpc++)->second;
      while (p != prev->ac.end() && p->first < id) ++p;
      if (p == prev->ac.end()) break;
      if (p->first != id || sharing_lpc <= 0.0) continue;
      max_ac_increase_ =
          std::max(max_ac_increase_, (ac - p->second) / sharing_lpc);
    }
  }
  // Copy-assigning over the previous snapshot reuses its arrays.
  if (latest_.empty()) {
    latest_.push_back(snapshot);
  } else {
    latest_.front() = snapshot;
  }
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
