// CostingSession: fair costing over time.
//
// FAIRCOST's input is the whole global plan, so "when a new sharing
// arrives, the costs of existing sharings may change" (Section 5). The
// paper argues this is acceptable because an AC can never exceed the
// sharing's LPC. A CostingSession re-runs FAIRCOST after each arrival (or
// whenever the provider re-bills), records the per-sharing AC history and
// exposes the drift statistics that substantiate that claim.

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

  // Runs FAIRCOST over the current global plan and appends a snapshot.
  Result<Snapshot> Refresh();

  size_t num_refreshes() const { return history_.size(); }
  const std::vector<Snapshot>& history() const { return history_; }

  // Largest increase of any sharing's AC between consecutive refreshes,
  // as a fraction of its LPC. Bounded by 1 by construction (AC <= LPC).
  double MaxAcIncreaseFractionOfLpc() const;

  // Current AC of a sharing per the latest snapshot (-1 if unknown).
  double CurrentAc(SharingId id) const;

 private:
  const GlobalPlan* global_plan_;
  LpcCalculator* lpc_;
  std::vector<Snapshot> history_;
  // Containment DAG carried across refreshes; only sharings added or
  // removed since the previous Refresh are compared.
  IncrementalContainmentIndex dag_index_;
};

}  // namespace dsm

#endif  // DSM_COSTING_COSTING_SESSION_H_
