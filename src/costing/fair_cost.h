// Algorithm FAIRCOST (Section 5, Algorithm 3): attribute the global plan's
// cost to the sharings while satisfying the five fairness criteria and
// maximizing the fairness degree α.
//
// For a given α, each sharing's attributed cost is bounded above by
//   (2)  LPC(S),
//   (4)  GPC(S) − α · Σ_{r ∈ S} saving(r)/num(r),
//   (1)  the bound of any identical sharing, and
//   (3)  the bound of any sharing containing S (so the contained, cheaper
//        sharing never pays more than its container).
// The bounds are non-increasing in α, so a binary search finds the largest
// α whose bounds still sum to at least cost(GP) (criterion (5)); the final
// ACs are the bounds scaled down proportionally to recover cost(GP)
// exactly, which preserves criteria (1)–(4).
//
// Note on criterion (3): the paper's Algorithm 3 sketch processes sharings
// in increasing LPC order and takes a min over DAG "predecessors"; read
// literally that caps a *container* by its containees, the reverse of what
// criterion (3) states. We implement the direction criterion (3) demands —
// each sharing is capped by its containers' bounds, computed containers-
// first (decreasing LPC) — which reproduces the paper's worked Example 5.1
// exactly and keeps the "Contained" fairness metric at 1.

#ifndef DSM_COSTING_FAIR_COST_H_
#define DSM_COSTING_FAIR_COST_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sharing/sharing.h"

namespace dsm {

struct FairCostEntry {
  SharingId id = 0;
  double lpc = 0.0;
  double gpc = 0.0;
  // Σ_{r ∈ S's plan} saving(r) / num(r)  (Definition 5.1).
  double saving_term = 0.0;
  uint32_t identity_group = 0;
  std::vector<int> containers;  // indices of containing sharings
};

struct FairCostResult {
  std::vector<double> ac;  // attributed cost per entry
  double alpha = 0.0;      // maximized fairness degree
  // True when even α = 1 left slack and ACs were scaled down to recover
  // cost(GP) exactly.
  bool scaled_down = false;
  // False only in the lpc_overrun_fallback regime: cost(GP) exceeded
  // Σ LPC (Lemma 5.2's unsatisfiable case), so criterion (2) is violated
  // proportionally across all sharings.
  bool criteria_satisfied = true;
};

class FairCost {
 public:
  struct Options {
    // When cost(GP) > Σ LPC the five criteria are unsatisfiable
    // (Lemma 5.2). With this flag the computation does not fail: every
    // sharing is charged its LPC scaled up by the common overrun factor —
    // the uniform minimal violation of criterion (2) — and the result is
    // marked criteria_satisfied = false. A provider can still bill while
    // the online planner's investment is being amortized.
    bool lpc_overrun_fallback = false;
  };

  // Returns kInfeasible iff the criteria are unsatisfiable, i.e.
  // Σ LPC(S) < cost(GP) (Lemma 5.2).
  static Result<FairCostResult> Compute(
      const std::vector<FairCostEntry>& entries, double global_cost,
      Options options);
  static Result<FairCostResult> Compute(
      const std::vector<FairCostEntry>& entries, double global_cost) {
    return Compute(entries, global_cost, Options{});
  }
};

}  // namespace dsm

#endif  // DSM_COSTING_FAIR_COST_H_
