// Process-wide metrics registry: named counters, gauges and fixed-bucket
// histograms.
//
// The paper's argument is entirely quantitative (plan costs, fairness
// degrees, planning latencies), so the runtime meters itself: hot paths
// update instruments through the DSM_METRIC_* macros below, and reporting
// surfaces (RunReport, the bench --json reporter, dsm_inspect) pull a
// consistent MetricsSnapshot and export it as JSON or Prometheus text.
//
// Design points:
//  * A counter is one relaxed atomic: exact and safe from any thread. The
//    library starts no threads (DESIGN.md §10), so nothing contends on it.
//  * Histograms have fixed, immutable bucket upper bounds; observation is
//    two relaxed atomic adds plus CAS loops for sum/min/max. Percentiles
//    are estimated from the cumulative bucket counts.
//  * Instruments are created on first use and never destroyed; Reset()
//    zeroes values but keeps every name and pointer valid, so call sites
//    may cache instrument pointers in function-local statics (the macros
//    do exactly that — one registry lock per call site per process).
//  * Metric names follow the `dsm.<module>.<name>` convention (DESIGN.md
//    §9); nothing enforces it, everything assumes it.

#ifndef DSM_OBS_METRICS_H_
#define DSM_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"

namespace dsm {
namespace obs {

class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }

  // Concurrent Adds that complete before the call are always included.
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

// Fixed-bucket histogram. Bucket i counts observations <= bounds[i]; one
// implicit overflow bucket counts the rest.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;  // 0 when empty
  double max() const;  // 0 when empty
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  size_t num_buckets() const { return bounds_.size() + 1; }

  void Reset();

 private:
  const std::vector<double> bounds_;  // ascending upper bounds
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

// Default latency buckets in milliseconds: 0.001ms .. ~16s, powers of 4.
const std::vector<double>& DefaultLatencyBucketsMs();

// Point-in-time copy of one histogram, with percentile estimation.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;  // bounds.size() + 1 (last = overflow)
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  // Upper bound of the bucket containing the q-quantile (q in [0, 1]);
  // uses the recorded min/max for the extreme buckets. 0 when empty.
  double Percentile(double q) const;
  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  // min, max, p50, p95, buckets: [...]}}}. With include_timings false the
  // histograms section is omitted entirely — wall-clock-derived values are
  // the only nondeterminism in a seeded run, and dropping them makes the
  // snapshot byte-stable.
  JsonValue ToJson(bool include_timings = true) const;

  // Prometheus text exposition format (names have '.' mapped to '_').
  std::string ToPrometheusText() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  // Find-or-create. Returned pointers are valid for the registry's
  // lifetime (process lifetime for Global()).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  // `bounds` is only used on first creation; later callers get the
  // existing histogram regardless of the bounds they pass.
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>& bounds =
                              DefaultLatencyBucketsMs());

  MetricsSnapshot Snapshot() const;

  // Zeroes every instrument. Names and instrument pointers stay valid.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// RAII timer observing its lifetime (in ms) into a histogram.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram* histogram)
      : histogram_(histogram),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedLatencyTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_->Observe(
        std::chrono::duration<double, std::milli>(elapsed).count());
  }
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace dsm

// --- Instrumentation macros -------------------------------------------------
// Each call site caches its instrument pointer in a function-local static:
// the registry lock is taken once per site, then updates are lock-free.

#define DSM_METRIC_COUNTER_ADD(name, delta)                               \
  do {                                                                    \
    static ::dsm::obs::Counter* const dsm_metric_counter_ =               \
        ::dsm::obs::MetricsRegistry::Global().GetCounter(name);           \
    dsm_metric_counter_->Add(static_cast<uint64_t>(delta));               \
  } while (0)

#define DSM_METRIC_GAUGE_SET(name, value)                                 \
  do {                                                                    \
    static ::dsm::obs::Gauge* const dsm_metric_gauge_ =                   \
        ::dsm::obs::MetricsRegistry::Global().GetGauge(name);             \
    dsm_metric_gauge_->Set(static_cast<double>(value));                   \
  } while (0)

#define DSM_METRIC_HISTOGRAM_OBSERVE(name, value)                         \
  do {                                                                    \
    static ::dsm::obs::Histogram* const dsm_metric_histogram_ =           \
        ::dsm::obs::MetricsRegistry::Global().GetHistogram(name);         \
    dsm_metric_histogram_->Observe(static_cast<double>(value));           \
  } while (0)

#define DSM_METRIC_SCOPED_LATENCY_MS_CAT2(a, b) a##b
#define DSM_METRIC_SCOPED_LATENCY_MS_CAT(a, b) \
  DSM_METRIC_SCOPED_LATENCY_MS_CAT2(a, b)
// Observes the enclosing scope's duration (ms) into histogram `name`.
#define DSM_METRIC_SCOPED_LATENCY_MS(name)                                \
  static ::dsm::obs::Histogram* const DSM_METRIC_SCOPED_LATENCY_MS_CAT(   \
      dsm_metric_scoped_hist_, __LINE__) =                                \
      ::dsm::obs::MetricsRegistry::Global().GetHistogram(name);           \
  ::dsm::obs::ScopedLatencyTimer DSM_METRIC_SCOPED_LATENCY_MS_CAT(        \
      dsm_metric_scoped_timer_, __LINE__)(                                \
      DSM_METRIC_SCOPED_LATENCY_MS_CAT(dsm_metric_scoped_hist_, __LINE__))

#endif  // DSM_OBS_METRICS_H_
