// Fairness metrics for a cost assignment (Section 6.3 / Figure 7):
//   alpha     — the largest α such that every sharing's AC still respects
//               criterion (4)'s saving-award bound as FAIRCOST enforces
//               it, AC <= max(0, GPC − α·saving_term) (a sharing billed 0
//               meets it at every α),
//   LPC       — fraction of sharings with AC <= LPC (criterion (2)),
//   Identical — fraction of identical pairs charged equally (criterion (1)),
//   Contained — fraction of containment pairs with the contained sharing
//               charged no more (criterion (3)).
// Higher is fairer; FAIRCOST scores 1 on the last three by construction.

#ifndef DSM_COSTING_FAIRNESS_METRICS_H_
#define DSM_COSTING_FAIRNESS_METRICS_H_

#include <vector>

#include "costing/fair_cost.h"

namespace dsm {

struct FairnessReport {
  double alpha = 1.0;
  double lpc_fraction = 1.0;
  double identical_fraction = 1.0;
  double contained_fraction = 1.0;
  // |Σ AC − cost(GP)| / cost(GP); criterion (5) wants 0.
  double recovery_error = 0.0;
};

FairnessReport EvaluateFairness(const std::vector<FairCostEntry>& entries,
                                double global_cost,
                                const std::vector<double>& ac,
                                double tolerance = 1e-6);

}  // namespace dsm

#endif  // DSM_COSTING_FAIRNESS_METRICS_H_
