// Recovery telemetry: a failure splits its parkings into sharings ruled
// out by liveness alone (dsm.recovery.ruled_out) and sharings whose plans
// were all dry-run and found over capacity; a forced retry after the
// machine returns records its own span and latency. Admission counts
// liveness rejections apart from capacity rejections.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "market/rig.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "online/greedy.h"
#include "online/recovery_planner.h"
#include "testing/fact_dim.h"

namespace dsm {
namespace obs {
namespace {

TableSet FactDim() {
  TableSet s;
  s.Add(0);
  s.Add(1);
  return s;
}

// The fact/dim world with m0 and m1 able to take only a tenth of the fact
// table's update stream, so a FACT ⋈ DIM join fits on m2 alone, while
// residual copies of its tiny output fit anywhere.
Scenario CappedFactDim() { return testing_support::FactDimWorld(1e4); }

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

TEST(RecoveryMetricsTest, RuledOutAndFullPathParkingsAddUp) {
  const Scenario world = CappedFactDim();
  const Rig rig = MakeRig(world);
  GreedyPlanner planner(rig.ctx);
  // A: the join delivered to m2, where it must be computed.
  const auto a = planner.ProcessSharing(Sharing(FactDim(), {}, 2, "a"));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  // B: a filtered copy of that join delivered to m0, fed from A's view.
  Predicate pred;
  pred.table = 0;
  pred.column = 1;
  pred.op = CompareOp::kLt;
  pred.value = 5000.0;
  const auto b = planner.ProcessSharing(Sharing(FactDim(), {pred}, 0, "b"));
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(rig.global_plan->SharingsTouchingServer(2).size(), 2u);

  const uint64_t ruled_out = CounterValue("dsm.recovery.ruled_out");
  const uint64_t parkings = CounterValue("dsm.recovery.parkings");
  const uint64_t migrations = CounterValue("dsm.recovery.migrations");
  ASSERT_TRUE(world.cluster->MarkDown(2).ok());
  RecoveryPlanner recovery(rig.ctx);
  const auto report = recovery.OnServerDown(2, /*now_tick=*/0);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // A's destination is gone: ruled out without a dry run. B's plans are
  // all dry-run and none fits m0/m1: a full-path parking.
  EXPECT_EQ(report->parked.size(), 2u);
  EXPECT_EQ(CounterValue("dsm.recovery.ruled_out") - ruled_out, 1u);
  const uint64_t full_path = 1;
  EXPECT_EQ(CounterValue("dsm.recovery.parkings") - parkings,
            (CounterValue("dsm.recovery.ruled_out") - ruled_out) + full_path);
  EXPECT_EQ(CounterValue("dsm.recovery.migrations"), migrations);

  // The forced retry after the machine returns is its own span and
  // latency sample, not hidden in the caller's tick.
  Histogram* retry_ms = MetricsRegistry::Global().GetHistogram(
      "dsm.recovery.retry_ms");
  const uint64_t retries = retry_ms->count();
  Tracer::Global().Clear();
  ASSERT_TRUE(world.cluster->MarkUp(2).ok());
  const auto readmitted = recovery.RetryParked(1, /*force=*/true);
  ASSERT_TRUE(readmitted.ok());
  EXPECT_EQ(readmitted->size(), 2u);
  EXPECT_EQ(retry_ms->count() - retries, 1u);
  int spans = 0;
  for (const TraceSpan& span : Tracer::Global().spans()) {
    if (span.name == "recovery/retry_parked") ++spans;
  }
  EXPECT_EQ(spans, 1);
}

TEST(RecoveryMetricsTest, LivenessRejectionsCountAsRejections) {
  const Scenario world = CappedFactDim();
  const Rig rig = MakeRig(world);
  GreedyPlanner planner(rig.ctx);
  ASSERT_TRUE(world.cluster->MarkDown(2).ok());
  const uint64_t rejected = CounterValue("dsm.online.sharings_rejected");
  const uint64_t liveness = CounterValue("dsm.online.liveness_rejections");
  const auto dead = planner.ProcessSharing(Sharing(FactDim(), {}, 2, "x"));
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kCapacityExceeded);
  EXPECT_EQ(CounterValue("dsm.online.sharings_rejected") - rejected, 1u);
  EXPECT_EQ(CounterValue("dsm.online.liveness_rejections") - liveness, 1u);

  // A capacity rejection is counted as a rejection, not a liveness one.
  const auto full = planner.ProcessSharing(Sharing(FactDim(), {}, 0, "y"));
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kCapacityExceeded);
  EXPECT_EQ(CounterValue("dsm.online.sharings_rejected") - rejected, 2u);
  EXPECT_EQ(CounterValue("dsm.online.liveness_rejections") - liveness, 1u);

  // The rejected arrivals still consumed their sharing ids.
  ASSERT_TRUE(world.cluster->MarkUp(2).ok());
  const auto served = planner.ProcessSharing(Sharing(FactDim(), {}, 2, "z"));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->id, 3u);
}

}  // namespace
}  // namespace obs
}  // namespace dsm
