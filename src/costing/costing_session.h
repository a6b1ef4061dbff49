// CostingSession: fair costing over time.
//
// FAIRCOST's input is the whole global plan, so "when a new sharing
// arrives, the costs of existing sharings may change" (Section 5). The
// paper argues this is acceptable because an AC can never exceed the
// sharing's LPC. A CostingSession re-runs FAIRCOST after each arrival (or
// whenever the provider re-bills) and exposes the drift statistic that
// substantiates that claim. It keeps only the latest snapshot, a refresh
// count and the running drift maximum, so its memory does not grow with
// the number of refreshes; a caller wanting the per-refresh history keeps
// Refresh()'s return values.

#ifndef DSM_COSTING_COSTING_SESSION_H_
#define DSM_COSTING_COSTING_SESSION_H_

#include <map>
#include <vector>

#include "common/status.h"
#include "costing/fair_cost.h"
#include "costing/incremental_containment.h"
#include "costing/lpc.h"
#include "globalplan/global_plan.h"

namespace dsm {

class CostingSession {
 public:
  CostingSession(const GlobalPlan* global_plan, LpcCalculator* lpc)
      : global_plan_(global_plan), lpc_(lpc) {}

  struct Snapshot {
    double alpha = 0.0;
    double global_cost = 0.0;
    // False while the planner's risk investments exceed Σ LPC (Lemma
    // 5.2's transient): ACs are then LPCs scaled by the overrun factor.
    bool criteria_satisfied = true;
    std::map<SharingId, double> ac;
    std::map<SharingId, double> lpc;
  };

  // Runs FAIRCOST over the current global plan; the result replaces the
  // latest snapshot.
  Result<Snapshot> Refresh();

  size_t num_refreshes() const { return num_refreshes_; }
  // The latest snapshot, or nullptr before the first Refresh. Valid until
  // the next Refresh.
  const Snapshot* latest() const {
    return latest_.empty() ? nullptr : &latest_.back();
  }
  // At most one entry, the latest snapshot. Kept for callers written
  // against the unbounded history; new code uses latest().
  const std::vector<Snapshot>& history() const { return latest_; }

  // Largest increase of any sharing's AC between consecutive refreshes,
  // as a fraction of its LPC. Bounded by 1 by construction (AC <= LPC).
  double MaxAcIncreaseFractionOfLpc() const { return max_ac_increase_; }

  // Current AC of a sharing per the latest snapshot (-1 if unknown).
  double CurrentAc(SharingId id) const;

 private:
  const GlobalPlan* global_plan_;
  LpcCalculator* lpc_;
  std::vector<Snapshot> latest_;  // empty, or the latest snapshot
  size_t num_refreshes_ = 0;
  double max_ac_increase_ = 0.0;
  // Containment DAG carried across refreshes; only sharings added or
  // removed since the previous Refresh are compared.
  IncrementalContainmentIndex dag_index_;
};

}  // namespace dsm

#endif  // DSM_COSTING_COSTING_SESSION_H_
