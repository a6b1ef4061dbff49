// Recovery telemetry: a failure splits its parkings into sharings ruled
// out by liveness alone (dsm.recovery.ruled_out) and sharings whose plans
// were all dry-run and found over capacity; a forced retry after the
// machine returns records its own span and latency. Admission counts
// liveness rejections apart from capacity rejections.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cost/default_cost_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "online/greedy.h"
#include "online/recovery_planner.h"

namespace dsm {
namespace obs {
namespace {

ColumnDef Col(const std::string& name, DataType type, double distinct,
              double max_value) {
  ColumnDef col;
  col.name = name;
  col.type = type;
  col.distinct_values = distinct;
  col.min_value = 0.0;
  col.max_value = max_value;
  return col;
}

TableSet FactDim() {
  TableSet s;
  s.Add(0);
  s.Add(1);
  return s;
}

// A hot fact table (m0) keyed against a small dimension (m1); m2 holds no
// base table. m0 and m1 can only take a tenth of the fact table's update
// stream, so a FACT ⋈ DIM join fits on m2 alone, while residual copies of
// its tiny output fit anywhere.
struct StarRig {
  Catalog catalog;
  Cluster cluster;
  std::unique_ptr<JoinGraph> graph;
  std::unique_ptr<DefaultCostModel> model;
  std::unique_ptr<PlanEnumerator> enumerator;
  std::unique_ptr<GlobalPlan> gp;
  PlannerContext ctx;

  StarRig() {
    TableDef fact;
    fact.name = "fact";
    fact.columns = {Col("k", DataType::kInt64, 1e6, 1e6),
                    Col("v", DataType::kDouble, 1e4, 1e4)};
    fact.stats = {/*cardinality=*/1e6, /*update_rate=*/1e5,
                  /*tuple_bytes=*/64.0};
    TableDef dim;
    dim.name = "dim";
    dim.columns = {Col("k", DataType::kInt64, 1e3, 1e6),
                   Col("label", DataType::kString, 1e3, 1.0)};
    dim.stats = {/*cardinality=*/1e3, /*update_rate=*/1.0,
                 /*tuple_bytes=*/64.0};
    EXPECT_TRUE(catalog.AddTable(fact).ok());
    EXPECT_TRUE(catalog.AddTable(dim).ok());
    cluster.AddServer("m0", 1e4);
    cluster.AddServer("m1", 1e4);
    cluster.AddServer("m2");
    EXPECT_TRUE(cluster.PlaceTable(0, 0).ok());
    EXPECT_TRUE(cluster.PlaceTable(1, 1).ok());
    graph = std::make_unique<JoinGraph>(JoinGraph::FromCatalog(catalog));
    model = std::make_unique<DefaultCostModel>(&catalog, &cluster);
    enumerator = std::make_unique<PlanEnumerator>(
        &catalog, &cluster, graph.get(), model.get(), EnumeratorOptions{});
    gp = std::make_unique<GlobalPlan>(&cluster, model.get());
    ctx = PlannerContext{&catalog, &cluster,  graph.get(),
                         model.get(), gp.get(), enumerator.get()};
  }
};

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

TEST(RecoveryMetricsTest, RuledOutAndFullPathParkingsAddUp) {
  StarRig rig;
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
  ASSERT_EQ(rig.gp->SharingsTouchingServer(2).size(), 2u);

  const uint64_t ruled_out = CounterValue("dsm.recovery.ruled_out");
  const uint64_t parkings = CounterValue("dsm.recovery.parkings");
  const uint64_t migrations = CounterValue("dsm.recovery.migrations");
  ASSERT_TRUE(rig.cluster.MarkDown(2).ok());
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
  ASSERT_TRUE(rig.cluster.MarkUp(2).ok());
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
  StarRig rig;
  GreedyPlanner planner(rig.ctx);
  ASSERT_TRUE(rig.cluster.MarkDown(2).ok());
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
  ASSERT_TRUE(rig.cluster.MarkUp(2).ok());
  const auto served = planner.ProcessSharing(Sharing(FactDim(), {}, 2, "z"));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->id, 3u);
}

}  // namespace
}  // namespace obs
}  // namespace dsm
