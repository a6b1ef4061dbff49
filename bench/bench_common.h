// Shared helpers for the reproduction benches. Each bench binary
// regenerates one table/figure of the paper's evaluation (Section 6) and
// prints the corresponding rows/series. Set DSM_BENCH_FULL=1 for the
// paper-scale parameter sweeps (slower); the default is a reduced sweep
// with the same shape.

#ifndef DSM_BENCH_BENCH_COMMON_H_
#define DSM_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "market/rig.h"
#include "obs/json.h"
#include "workload/scenario.h"

namespace dsm {
namespace bench {

inline bool FullScale() {
  const char* env = std::getenv("DSM_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  double Millis() const { return Seconds() * 1e3; }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Order statistics over a set of per-call latencies. A single mean hides
// the tail that scalability plots are about; min/median/p95 (plus the mean
// for continuity with older output) characterize the distribution.
struct LatencySummary {
  double min_ms = 0.0;
  double median_ms = 0.0;
  double p95_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;

  static LatencySummary FromSamples(std::vector<double> samples_ms) {
    LatencySummary s;
    if (samples_ms.empty()) return s;
    std::sort(samples_ms.begin(), samples_ms.end());
    const size_t n = samples_ms.size();
    const auto at_quantile = [&](double q) {
      size_t idx = static_cast<size_t>(q * static_cast<double>(n - 1) + 0.5);
      return samples_ms[std::min(idx, n - 1)];
    };
    s.min_ms = samples_ms.front();
    s.median_ms = at_quantile(0.5);
    s.p95_ms = at_quantile(0.95);
    s.max_ms = samples_ms.back();
    double sum = 0.0;
    for (const double v : samples_ms) sum += v;
    s.mean_ms = sum / static_cast<double>(n);
    return s;
  }

  obs::JsonValue ToJson() const {
    obs::JsonValue o = obs::JsonValue::Object();
    o.Set("min_ms", min_ms);
    o.Set("median_ms", median_ms);
    o.Set("p95_ms", p95_ms);
    o.Set("mean_ms", mean_ms);
    o.Set("max_ms", max_ms);
    return o;
  }
};

struct RunStats {
  double total_cost = 0.0;
  double seconds = 0.0;
  size_t planned = 0;
  size_t rejected = 0;
  // Wall-clock of each individual ProcessSharing call (steady clock).
  std::vector<double> per_sharing_ms;

  LatencySummary latency() const {
    return LatencySummary::FromSamples(per_sharing_ms);
  }
};

inline RunStats RunPlanner(OnlinePlanner* planner,
                           const std::vector<Sharing>& sequence) {
  RunStats stats;
  stats.per_sharing_ms.reserve(sequence.size());
  const Timer timer;
  for (const Sharing& sharing : sequence) {
    const Timer call_timer;
    const auto choice = planner->ProcessSharing(sharing);
    stats.per_sharing_ms.push_back(call_timer.Millis());
    if (choice.ok()) {
      ++stats.planned;
    } else {
      ++stats.rejected;
    }
  }
  stats.seconds = timer.Seconds();
  stats.total_cost = planner->context().global_plan->TotalCost();
  return stats;
}

}  // namespace bench
}  // namespace dsm

#endif  // DSM_BENCH_BENCH_COMMON_H_
