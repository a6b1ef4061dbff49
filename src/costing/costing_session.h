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
//
// A refresh is FAIRCOST plus flat passes over the population (DESIGN.md
// §11, "Billing in time proportional to the change"):
//  * saving(r)/num(r) are kept current by the GlobalPlan itself and read
//    by reference (GlobalPlan::SavingShares);
//  * the containment DAG lives in an IncrementalContainmentIndex whose
//    rows follow the population's id order and change only where a
//    sharing arrived or left;
//  * the snapshot's per-sharing values are id-ordered (id, value) arrays
//    (SharingValues), so the drift against the previous snapshot is one
//    merge pass and the snapshot is copied once, into latest().

#ifndef DSM_COSTING_COSTING_SESSION_H_
#define DSM_COSTING_COSTING_SESSION_H_

#include <utility>
#include <vector>

#include "common/status.h"
#include "costing/fair_cost.h"
#include "costing/incremental_containment.h"
#include "costing/lpc.h"
#include "costing/savings.h"
#include "globalplan/global_plan.h"

namespace dsm {

// One value per sharing, stored as (id, value) pairs in ascending id
// order, with the read interface of std::map<SharingId, double>: iterate
// in id order with `for (const auto& [id, v] : values)`, look up with
// find (end() if absent) or at (std::out_of_range if absent), compare
// with ==.
class SharingValues {
 public:
  using value_type = std::pair<SharingId, double>;
  using const_iterator = std::vector<value_type>::const_iterator;
  using iterator = const_iterator;

  const_iterator begin() const { return rows_.begin(); }
  const_iterator end() const { return rows_.end(); }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  const_iterator find(SharingId id) const;
  const double& at(SharingId id) const;
  bool operator==(const SharingValues& other) const = default;

  void reserve(size_t n) { rows_.reserve(n); }
  // Appends a value; `id` must exceed every id already present.
  void push_back(SharingId id, double value);

 private:
  std::vector<value_type> rows_;
};

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
    SharingValues ac;
    SharingValues lpc;
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
  // The last refresh's FAIRCOST input, rebuilt in place by the next.
  FairCostProblem problem_;
};

}  // namespace dsm

#endif  // DSM_COSTING_COSTING_SESSION_H_
