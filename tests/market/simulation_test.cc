#include "market/simulation.h"

#include <gtest/gtest.h>

#include "common/fault.h"
#include "cost/default_cost_model.h"
#include "online/recovery_planner.h"
#include "workload/twitter.h"

namespace dsm {
namespace {

TableSet TS(std::initializer_list<TableId> ids) {
  TableSet s;
  for (const TableId id : ids) s.Add(id);
  return s;
}

class SimulationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto tables = BuildTwitterCatalog(&catalog_);
    ASSERT_TRUE(tables.ok());
    tables_ = *tables;
  }

  Catalog catalog_;
  TwitterTables tables_;
};

TEST_F(SimulationTest, RandomTupleMatchesSchema) {
  Rng rng(5);
  const Tuple t = RandomTupleForTable(catalog_, tables_.users, &rng);
  EXPECT_EQ(t.size(), catalog_.table(tables_.users).columns.size());
}

TEST_F(SimulationTest, ViewsStayFreshUnderStreaming) {
  MarketSimulation sim(&catalog_, 77);
  ASSERT_TRUE(
      sim.AddBuyerView(1, ViewKey(TS({tables_.users, tables_.tweets})))
          .ok());
  ASSERT_TRUE(
      sim.AddBuyerView(2, ViewKey(TS({tables_.tweets, tables_.curloc})))
          .ok());
  ASSERT_TRUE(sim.Run(/*ticks=*/5, /*scale=*/0.05).ok());
  EXPECT_GT(sim.updates_applied(), 0u);
  EXPECT_EQ(sim.ticks_elapsed(), 5);
  const auto verified = sim.VerifyViews();
  ASSERT_TRUE(verified.ok());
  EXPECT_TRUE(*verified);
}

TEST_F(SimulationTest, DeletesHandled) {
  MarketSimulation sim(&catalog_, 78);
  ASSERT_TRUE(
      sim.AddBuyerView(1, ViewKey(TS({tables_.users, tables_.tweets})))
          .ok());
  ASSERT_TRUE(sim.Run(/*ticks=*/8, /*scale=*/0.03,
                      /*delete_fraction=*/0.5)
                  .ok());
  const auto verified = sim.VerifyViews();
  ASSERT_TRUE(verified.ok());
  EXPECT_TRUE(*verified);
  // Bases never go negative.
  for (const TableId t : {tables_.users, tables_.tweets}) {
    sim.engine().base(t)->ForEachRow(
        [](const Tuple&, int64_t count) { EXPECT_GT(count, 0); });
  }
}

TEST_F(SimulationTest, RefusedTickAppliesNothingAndRetriesCleanly) {
  MarketSimulation sim(&catalog_, 83);
  ASSERT_TRUE(
      sim.AddBuyerView(1, ViewKey(TS({tables_.users, tables_.tweets})))
          .ok());
  ASSERT_TRUE(sim.Run(/*ticks=*/4, /*scale=*/0.1,
                      /*delete_fraction=*/0.5)
                  .ok());
  const uint64_t applied = sim.updates_applied();
  const int ticks = sim.ticks_elapsed();
  const int64_t view_size = sim.ViewSize(1);
  const Relation users = *sim.engine().base(tables_.users);
  const Relation tweets = *sim.engine().base(tables_.tweets);
  {
    // Each table's round joins the one view's table set: USERS' join
    // completes, TWEETS' fails.
    FaultSpec spec;
    spec.fail_after = 1;
    spec.max_fires = 1;
    ScopedFault fault("maintain/join", spec);
    EXPECT_EQ(sim.Run(1, 0.1, 0.5).code(), StatusCode::kInternal);
    EXPECT_EQ(FaultInjector::Global().fires("maintain/join"), 1);
  }
  EXPECT_EQ(sim.updates_applied(), applied);
  EXPECT_EQ(sim.ticks_elapsed(), ticks);
  EXPECT_EQ(sim.ViewSize(1), view_size);
  EXPECT_TRUE(sim.engine().base(tables_.users)->BagEquals(users));
  EXPECT_TRUE(sim.engine().base(tables_.tweets)->BagEquals(tweets));

  // The simulation's live tuples still match the bases, so the deletes of
  // the ticks that follow are all accepted.
  ASSERT_TRUE(sim.Run(/*ticks=*/6, /*scale=*/0.1,
                      /*delete_fraction=*/0.5)
                  .ok());
  const auto verified = sim.VerifyViews();
  ASSERT_TRUE(verified.ok());
  EXPECT_TRUE(*verified);
}

TEST_F(SimulationTest, DuplicateBuyerViewRejected) {
  MarketSimulation sim(&catalog_, 79);
  const ViewKey key(TS({tables_.users, tables_.tweets}));
  ASSERT_TRUE(sim.AddBuyerView(1, key).ok());
  EXPECT_EQ(sim.AddBuyerView(1, key).code(), StatusCode::kAlreadyExists);
}

TEST_F(SimulationTest, ViewSizeReporting) {
  MarketSimulation sim(&catalog_, 80);
  ASSERT_TRUE(
      sim.AddBuyerView(7, ViewKey(TS({tables_.users, tables_.tweets})))
          .ok());
  EXPECT_EQ(sim.ViewSize(7), 0);
  EXPECT_EQ(sim.ViewSize(99), -1);
}

TEST_F(SimulationTest, ZeroScaleAppliesNothing) {
  MarketSimulation sim(&catalog_, 81);
  ASSERT_TRUE(
      sim.AddBuyerView(1, ViewKey(TS({tables_.users, tables_.tweets})))
          .ok());
  ASSERT_TRUE(sim.Run(3, 0.0).ok());
  EXPECT_EQ(sim.updates_applied(), 0u);
}

TEST_F(SimulationTest, RejectsEventsInThePast) {
  Cluster cluster;
  for (int i = 0; i < 3; ++i) cluster.AddServer("m" + std::to_string(i));
  cluster.PlaceRoundRobin(catalog_.num_tables());
  const JoinGraph graph = JoinGraph::FromCatalog(catalog_);
  DefaultCostModel model(&catalog_, &cluster);
  PlanEnumerator enumerator(&catalog_, &cluster, &graph, &model);
  GlobalPlan gp(&cluster, &model);
  RecoveryPlanner recovery(PlannerContext{&catalog_, &cluster, &graph,
                                          &model, &gp, &enumerator});
  MarketSimulation sim(&catalog_, 82);
  sim.AttachFaultDomain(&cluster, &recovery);
  ASSERT_TRUE(sim.Run(2, 0.0).ok());

  // Ticks 0 and -1 have passed; such an event could never fire.
  for (const int tick : {0, -1}) {
    EXPECT_EQ(sim.ScheduleServerFailure(tick, 1).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(sim.ScheduleServerRecovery(tick, 1).code(),
              StatusCode::kInvalidArgument);
  }
  // The current tick is still ahead of the next Run's first step.
  ASSERT_TRUE(sim.ScheduleServerFailure(2, 1).ok());
  ASSERT_TRUE(sim.Run(1, 0.0).ok());
  EXPECT_EQ(sim.recovery_stats().failures, 1);
  EXPECT_FALSE(cluster.is_up(1));
}

}  // namespace
}  // namespace dsm
