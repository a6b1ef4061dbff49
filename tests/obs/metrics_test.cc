#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace dsm {
namespace obs {
namespace {

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("dsm.test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kPerThread; ++i) counter->Increment();
    });
  }
  for (auto& th : threads) th.join();
  // Concurrent increments must produce an exact (not approximate) sum.
  EXPECT_EQ(counter->value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(CounterTest, AddAndReset) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("dsm.test.add");
  counter->Add(5);
  counter->Add(7);
  EXPECT_EQ(counter->value(), 12u);
  counter->Reset();
  EXPECT_EQ(counter->value(), 0u);
}

TEST(GaugeTest, SetOverwrites) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("dsm.test.gauge");
  gauge->Set(3.5);
  gauge->Set(-2.0);
  EXPECT_EQ(gauge->value(), -2.0);
  gauge->Reset();
  EXPECT_EQ(gauge->value(), 0.0);
}

TEST(RegistryTest, SameNameReturnsSameInstrument) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.GetCounter("dsm.x"), registry.GetCounter("dsm.x"));
  EXPECT_EQ(registry.GetGauge("dsm.y"), registry.GetGauge("dsm.y"));
  EXPECT_EQ(registry.GetHistogram("dsm.z"), registry.GetHistogram("dsm.z"));
  EXPECT_NE(registry.GetCounter("dsm.x"),
            registry.GetCounter("dsm.x2"));
}

TEST(HistogramTest, BucketBoundaries) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("dsm.test.hist", {1.0, 10.0, 100.0});
  ASSERT_EQ(h->num_buckets(), 4u);  // 3 bounds -> 3 finite + overflow
  h->Observe(0.5);    // < 1.0              -> bucket 0
  h->Observe(1.0);    // == bound is inclusive (le semantics) -> bucket 0
  h->Observe(1.5);    // (1, 10]            -> bucket 1
  h->Observe(10.0);   //                    -> bucket 1
  h->Observe(99.9);   // (10, 100]          -> bucket 2
  h->Observe(100.5);  // > last bound       -> overflow bucket
  EXPECT_EQ(h->bucket_count(0), 2u);
  EXPECT_EQ(h->bucket_count(1), 2u);
  EXPECT_EQ(h->bucket_count(2), 1u);
  EXPECT_EQ(h->bucket_count(3), 1u);
  EXPECT_EQ(h->count(), 6u);
  EXPECT_DOUBLE_EQ(h->sum(), 0.5 + 1.0 + 1.5 + 10.0 + 99.9 + 100.5);
  EXPECT_EQ(h->min(), 0.5);
  EXPECT_EQ(h->max(), 100.5);
}

TEST(HistogramTest, ConcurrentObservesKeepExactCountAndSum) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("dsm.test.conc_hist", {5.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h] {
      for (int i = 0; i < kPerThread; ++i) h->Observe(1.0);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(h->sum(), kThreads * kPerThread * 1.0);
  EXPECT_EQ(h->bucket_count(0), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(SnapshotTest, CapturesAllInstrumentKinds) {
  MetricsRegistry registry;
  registry.GetCounter("dsm.test.c")->Add(3);
  registry.GetGauge("dsm.test.g")->Set(1.5);
  registry.GetHistogram("dsm.test.h", {1.0})->Observe(0.5);

  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_TRUE(snapshot.counters.count("dsm.test.c"));
  EXPECT_EQ(snapshot.counters.at("dsm.test.c"), 3u);
  ASSERT_TRUE(snapshot.gauges.count("dsm.test.g"));
  EXPECT_EQ(snapshot.gauges.at("dsm.test.g"), 1.5);
  ASSERT_TRUE(snapshot.histograms.count("dsm.test.h"));
  EXPECT_EQ(snapshot.histograms.at("dsm.test.h").count, 1u);
}

TEST(SnapshotTest, SnapshotIsDecoupledFromLiveRegistry) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("dsm.test.decoupled");
  c->Add(1);
  const MetricsSnapshot before = registry.Snapshot();
  c->Add(41);
  EXPECT_EQ(before.counters.at("dsm.test.decoupled"), 1u);
  EXPECT_EQ(registry.Snapshot().counters.at("dsm.test.decoupled"), 42u);
}

TEST(SnapshotTest, ResetZeroesValuesButKeepsPointersValid) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("dsm.test.reset");
  Histogram* h = registry.GetHistogram("dsm.test.reset_h", {1.0});
  c->Add(9);
  h->Observe(0.5);
  registry.Reset();
  // Handles cached by DSM_METRIC_* call sites must survive a Reset.
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  c->Add(2);
  EXPECT_EQ(registry.Snapshot().counters.at("dsm.test.reset"), 2u);
  // The name stays registered with a zero value.
  EXPECT_TRUE(registry.Snapshot().histograms.count("dsm.test.reset_h"));
}

TEST(SnapshotTest, HistogramPercentiles) {
  MetricsRegistry registry;
  Histogram* h =
      registry.GetHistogram("dsm.test.pct", {1.0, 2.0, 4.0, 8.0});
  for (int i = 0; i < 90; ++i) h->Observe(0.5);  // bucket le 1.0
  for (int i = 0; i < 10; ++i) h->Observe(3.0);  // bucket le 4.0
  const MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramSnapshot& hs = snapshot.histograms.at("dsm.test.pct");
  EXPECT_LE(hs.Percentile(0.5), 1.0);
  EXPECT_GT(hs.Percentile(0.95), 2.0);
  EXPECT_LE(hs.Percentile(0.95), 4.0);
  EXPECT_DOUBLE_EQ(hs.mean(), (90 * 0.5 + 10 * 3.0) / 100.0);
}

TEST(SnapshotTest, JsonOmitsHistogramsWhenTimingsExcluded) {
  MetricsRegistry registry;
  registry.GetCounter("dsm.test.c")->Add(1);
  registry.GetHistogram("dsm.test.ms")->Observe(1.0);
  const MetricsSnapshot snapshot = registry.Snapshot();
  const JsonValue with = snapshot.ToJson(/*include_timings=*/true);
  const JsonValue without = snapshot.ToJson(/*include_timings=*/false);
  EXPECT_TRUE(with.Has("histograms"));
  EXPECT_FALSE(without.Has("histograms"));
  EXPECT_TRUE(without.Has("counters"));
  EXPECT_TRUE(without.Has("gauges"));
}

TEST(SnapshotTest, PrometheusTextExposition) {
  MetricsRegistry registry;
  registry.GetCounter("dsm.plan.enumerations")->Add(4);
  registry.GetGauge("dsm.globalplan.total_cost")->Set(12.5);
  registry.GetHistogram("dsm.plan.enumerate_ms", {1.0})->Observe(0.5);
  const std::string text = registry.Snapshot().ToPrometheusText();
  // Dots are not legal in Prometheus metric names; expect underscores.
  EXPECT_NE(text.find("dsm_plan_enumerations 4"), std::string::npos);
  EXPECT_NE(text.find("dsm_globalplan_total_cost 12.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dsm_plan_enumerations counter"),
            std::string::npos);
  EXPECT_NE(text.find("dsm_plan_enumerate_ms_count 1"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
}

TEST(ScopedLatencyTimerTest, ObservesOnDestruction) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("dsm.test.timer_ms");
  {
    ScopedLatencyTimer timer(h);
  }
  EXPECT_EQ(h->count(), 1u);
  EXPECT_GE(h->sum(), 0.0);
}

TEST(MacroTest, MacrosFeedGlobalRegistry) {
  Counter* c =
      MetricsRegistry::Global().GetCounter("dsm.test.macro_counter");
  const uint64_t before = c->value();
  DSM_METRIC_COUNTER_ADD("dsm.test.macro_counter", 3);
  EXPECT_EQ(c->value(), before + 3);
}

}  // namespace
}  // namespace obs
}  // namespace dsm
