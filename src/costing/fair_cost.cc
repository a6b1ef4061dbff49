#include "costing/fair_cost.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace dsm {
namespace {

// Absolute slack when comparing summed bounds against cost(GP).
constexpr double kTolerance = 1e-9;
// Bisection steps on α.
constexpr int kMaxIterations = 80;

// Alpha-independent scratch state of ComputeBounds. The bisection loop
// calls ComputeBounds dozens of times over the same entries; the LPC order
// and group count only depend on the entries, and the group_min/ub buffers
// can be recycled, so all allocations are hoisted out of the loop here.
struct BoundsWorkspace {
  explicit BoundsWorkspace(const std::vector<FairCostEntry>& entries) {
    const size_t n = entries.size();
    order.resize(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return entries[a].lpc > entries[b].lpc;
    });
    size_t num_groups = 0;
    for (const FairCostEntry& e : entries) {
      num_groups = std::max(num_groups,
                            static_cast<size_t>(e.identity_group) + 1);
    }
    group_min.resize(num_groups);
    ub.resize(n);
  }

  std::vector<size_t> order;      // indices by decreasing LPC
  std::vector<double> group_min;  // one slot per identity group
  std::vector<double> ub;         // reused result buffer
};

// Cost upper bounds per sharing at fairness degree `alpha`. The returned
// reference aliases `ws.ub` and is invalidated by the next call.
const std::vector<double>& ComputeBounds(
    const std::vector<FairCostEntry>& entries, double alpha,
    BoundsWorkspace& ws) {
  const size_t n = entries.size();
  std::vector<double>& ub = ws.ub;
  // Criteria (2) and (4); attributed costs cannot go negative.
  for (size_t i = 0; i < n; ++i) {
    ub[i] = std::max(
        0.0, std::min(entries[i].lpc,
                      entries[i].gpc - alpha * entries[i].saving_term));
  }

  // Criteria (1) and (3) interact (an identical twin may have a cheaper
  // container), so both monotone caps are applied until a fixpoint:
  //  (1) identical sharings share one bound — the tightest of the group
  //      (their GPCs can differ when the provider used different plans);
  //  (3) each sharing is capped by its containers' bounds, processed in
  //      decreasing LPC order (containers have LPC no smaller).
  for (size_t pass = 0; pass < n + 2; ++pass) {
    bool changed = false;
    std::fill(ws.group_min.begin(), ws.group_min.end(),
              std::numeric_limits<double>::infinity());
    for (size_t i = 0; i < n; ++i) {
      const uint32_t g = entries[i].identity_group;
      ws.group_min[g] = std::min(ws.group_min[g], ub[i]);
    }
    for (size_t i = 0; i < n; ++i) {
      const double v = ws.group_min[entries[i].identity_group];
      if (v < ub[i]) {
        ub[i] = v;
        changed = true;
      }
    }
    for (const size_t i : ws.order) {
      for (const int j : entries[i].containers) {
        const double v = ub[static_cast<size_t>(j)];
        if (v < ub[i]) {
          ub[i] = v;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  return ub;
}

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

}  // namespace

Result<FairCostResult> FairCost::Compute(
    const std::vector<FairCostEntry>& entries, double global_cost,
    Options options) {
  if (entries.empty()) {
    return Status::InvalidArgument("no sharings to cost");
  }
  DSM_METRIC_COUNTER_ADD("dsm.costing.faircost_runs", 1);
  DSM_METRIC_SCOPED_LATENCY_MS("dsm.costing.faircost_ms");
  DSM_TRACE_SPAN("costing/faircost");

  BoundsWorkspace ws(entries);

  // Lemma 5.2: satisfiable iff the bounds at α = 0 (which equal the LPCs
  // when GPC >= LPC) can still recover the global plan cost.
  const std::vector<double>& ub0 = ComputeBounds(entries, 0.0, ws);
  if (Sum(ub0) + kTolerance < global_cost) {
    if (!options.lpc_overrun_fallback) {
      return Status::Infeasible(
          "fairness criteria unsatisfiable: sum of LPCs below cost(GP) "
          "(Lemma 5.2)");
    }
    // Uniform minimal violation of criterion (2): scale the α = 0 bounds
    // up to recover cost(GP). Equalities and orderings survive.
    DSM_METRIC_COUNTER_ADD("dsm.costing.lpc_overrun_fallbacks", 1);
    DSM_TRACE_ANNOTATE("lpc_overrun_fallback", "true");
    FairCostResult fallback;
    fallback.alpha = 0.0;
    fallback.criteria_satisfied = false;
    const double total = Sum(ub0);
    const double scale = total > 0.0 ? global_cost / total : 0.0;
    fallback.ac.resize(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      fallback.ac[i] = ub0[i] * scale;
    }
    return fallback;
  }

  FairCostResult result;
  const std::vector<double>& ub = ComputeBounds(entries, 1.0, ws);
  if (Sum(ub) + kTolerance >= global_cost) {
    // Maximum fairness achievable outright.
    result.alpha = 1.0;
  } else {
    // Binary search the largest α whose bounds still cover cost(GP).
    double lo = 0.0;  // SumBounds(lo) >= global_cost
    double hi = 1.0;  // SumBounds(hi) <  global_cost
    for (int iter = 0; iter < kMaxIterations; ++iter) {
      DSM_METRIC_COUNTER_ADD("dsm.costing.bisect_iterations", 1);
      const double mid = 0.5 * (lo + hi);
      if (Sum(ComputeBounds(entries, mid, ws)) >= global_cost) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    result.alpha = lo;
    ComputeBounds(entries, lo, ws);  // refreshes ws.ub (== ub) for α = lo
  }

  // Criterion (5): recover cost(GP) exactly. The bounds sum to at least
  // cost(GP), so the scale factor is <= 1 and every criterion-(1)-(4)
  // constraint (equalities and orderings included) survives the scaling.
  const double total = Sum(ub);
  const double scale = total > 0.0 ? global_cost / total : 0.0;
  result.scaled_down = total > global_cost + kTolerance &&
                       result.alpha >= 1.0;
  result.ac.resize(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    result.ac[i] = ub[i] * scale;
  }
  return result;
}

}  // namespace dsm
