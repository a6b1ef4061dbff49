#include "costing/fairness_metrics.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace dsm {

FairnessReport EvaluateFairness(const std::vector<FairCostEntry>& entries,
                                double global_cost,
                                const std::vector<double>& ac,
                                double tolerance) {
  FairnessReport report;
  const size_t n = entries.size();
  if (n == 0 || ac.size() != n) return report;

  // alpha: the largest α in [0, 1] with AC <= max(0, GPC − α·saving_term)
  // for every sharing — criterion (4) as FAIRCOST enforces it, its bound
  // floored at 0. A sharing billed 0 meets that at every α, and sharings
  // with no shared intermediate results impose no constraint.
  double alpha = 1.0;
  for (size_t i = 0; i < n; ++i) {
    if (entries[i].saving_term <= 0.0 || ac[i] <= 0.0) continue;
    const double a = (entries[i].gpc - ac[i]) / entries[i].saving_term;
    alpha = std::min(alpha, std::clamp(a, 0.0, 1.0));
  }
  report.alpha = alpha;

  // LPC fraction (criterion (2)).
  size_t lpc_ok = 0;
  for (size_t i = 0; i < n; ++i) {
    if (ac[i] <= entries[i].lpc * (1.0 + tolerance) + tolerance) ++lpc_ok;
  }
  report.lpc_fraction = static_cast<double>(lpc_ok) / static_cast<double>(n);

  // Identical pairs (criterion (1)).
  std::map<uint32_t, std::vector<size_t>> groups;
  for (size_t i = 0; i < n; ++i) {
    groups[entries[i].identity_group].push_back(i);
  }
  size_t ident_pairs = 0;
  size_t ident_ok = 0;
  for (const auto& [g, members] : groups) {
    for (size_t a = 0; a < members.size(); ++a) {
      for (size_t b = a + 1; b < members.size(); ++b) {
        ++ident_pairs;
        const double diff = std::fabs(ac[members[a]] - ac[members[b]]);
        const double scale =
            std::max({1.0, std::fabs(ac[members[a]]),
                      std::fabs(ac[members[b]])});
        if (diff <= tolerance * scale) ++ident_ok;
      }
    }
  }
  report.identical_fraction =
      ident_pairs == 0 ? 1.0
                       : static_cast<double>(ident_ok) /
                             static_cast<double>(ident_pairs);

  // Containment pairs (criterion (3)).
  size_t cont_pairs = 0;
  size_t cont_ok = 0;
  for (size_t i = 0; i < n; ++i) {
    for (const int j : entries[i].containers) {
      ++cont_pairs;
      const double scale = std::max(
          {1.0, std::fabs(ac[i]), std::fabs(ac[static_cast<size_t>(j)])});
      if (ac[i] <= ac[static_cast<size_t>(j)] + tolerance * scale) {
        ++cont_ok;
      }
    }
  }
  report.contained_fraction =
      cont_pairs == 0 ? 1.0
                      : static_cast<double>(cont_ok) /
                            static_cast<double>(cont_pairs);

  double total = 0.0;
  for (const double a : ac) total += a;
  report.recovery_error =
      global_cost > 0.0 ? std::fabs(total - global_cost) / global_cost : 0.0;
  return report;
}

}  // namespace dsm
