#include "obs/metrics.h"

#include <algorithm>

namespace dsm {
namespace obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_([](std::vector<double> b) {
        std::sort(b.begin(), b.end());
        b.erase(std::unique(b.begin(), b.end()), b.end());
        return b;
      }(std::move(bounds))),
      buckets_(bounds_.size() + 1) {}

void Histogram::Observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const size_t bucket = static_cast<size_t>(it - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  const uint64_t prior = count_.fetch_add(1, std::memory_order_relaxed);

  // fetch_add on atomic<double> is C++20 but spotty across stdlibs; CAS
  // loops keep the sum/min/max updates portable.
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + v,
                                     std::memory_order_relaxed)) {
  }
  if (prior == 0) {
    // First observation seeds min and max. A concurrent first observation
    // is resolved by the CAS loops below on subsequent updates; metering
    // precision, not strict linearizability, is the goal here.
    min_.store(v, std::memory_order_relaxed);
    max_.store(v, std::memory_order_relaxed);
    return;
  }
  double cur_min = min_.load(std::memory_order_relaxed);
  while (v < cur_min && !min_.compare_exchange_weak(
                            cur_min, v, std::memory_order_relaxed)) {
  }
  double cur_max = max_.load(std::memory_order_relaxed);
  while (v > cur_max && !max_.compare_exchange_weak(
                            cur_max, v, std::memory_order_relaxed)) {
  }
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

const std::vector<double>& DefaultLatencyBucketsMs() {
  static const std::vector<double>* const buckets = [] {
    auto* b = new std::vector<double>();
    // 0.001ms .. ~16.7s in powers of 4: 13 buckets + overflow.
    double bound = 0.001;
    for (int i = 0; i < 13; ++i) {
      b->push_back(bound);
      bound *= 4.0;
    }
    return b;
  }();
  return *buckets;
}

double HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) >= target) {
      if (i == 0) return std::min(max, bounds.empty() ? max : bounds[0]);
      if (i >= bounds.size()) return max;  // overflow bucket
      return std::min(max, bounds[i]);
    }
  }
  return max;
}

JsonValue MetricsSnapshot::ToJson(bool include_timings) const {
  JsonValue root = JsonValue::Object();
  JsonValue counters_json = JsonValue::Object();
  for (const auto& [name, value] : counters) {
    counters_json.Set(name, JsonValue(value));
  }
  root.Set("counters", std::move(counters_json));

  JsonValue gauges_json = JsonValue::Object();
  for (const auto& [name, value] : gauges) {
    gauges_json.Set(name, JsonValue(value));
  }
  root.Set("gauges", std::move(gauges_json));

  if (include_timings) {
    JsonValue hists_json = JsonValue::Object();
    for (const auto& [name, h] : histograms) {
      JsonValue hj = JsonValue::Object();
      hj.Set("count", JsonValue(h.count));
      hj.Set("sum", JsonValue(h.sum));
      hj.Set("min", JsonValue(h.min));
      hj.Set("max", JsonValue(h.max));
      hj.Set("mean", JsonValue(h.mean()));
      hj.Set("p50", JsonValue(h.Percentile(0.50)));
      hj.Set("p95", JsonValue(h.Percentile(0.95)));
      hj.Set("p99", JsonValue(h.Percentile(0.99)));
      JsonValue bounds_json = JsonValue::Array();
      for (const double b : h.bounds) bounds_json.Append(JsonValue(b));
      hj.Set("bounds", std::move(bounds_json));
      JsonValue buckets_json = JsonValue::Array();
      for (const uint64_t b : h.buckets) buckets_json.Append(JsonValue(b));
      hj.Set("buckets", std::move(buckets_json));
      hists_json.Set(name, std::move(hj));
    }
    root.Set("histograms", std::move(hists_json));
  }
  return root;
}

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; our dotted names map '.'
// (and any other byte) to '_'.
std::string PrometheusName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

std::string MetricsSnapshot::ToPrometheusText() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    const std::string pname = PrometheusName(name);
    out += "# TYPE " + pname + " counter\n";
    out += pname + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    const std::string pname = PrometheusName(name);
    out += "# TYPE " + pname + " gauge\n";
    out += pname + " " + FormatJsonDouble(value) + "\n";
  }
  for (const auto& [name, h] : histograms) {
    const std::string pname = PrometheusName(name);
    out += "# TYPE " + pname + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += h.buckets[i];
      out += pname + "_bucket{le=\"" + FormatJsonDouble(h.bounds[i]) +
             "\"} " + std::to_string(cumulative) + "\n";
    }
    out += pname + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += pname + "_sum " + FormatJsonDouble(h.sum) + "\n";
    out += pname + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const instance = new MetricsRegistry();
  return *instance;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(bounds);
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->value();
  }
  for (const auto& [name, hist] : histograms_) {
    HistogramSnapshot hs;
    hs.bounds = hist->bounds();
    hs.buckets.resize(hist->num_buckets());
    for (size_t i = 0; i < hs.buckets.size(); ++i) {
      hs.buckets[i] = hist->bucket_count(i);
    }
    hs.count = hist->count();
    hs.sum = hist->sum();
    hs.min = hist->min();
    hs.max = hist->max();
    snapshot.histograms[name] = std::move(hs);
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
}

}  // namespace obs
}  // namespace dsm
