// Behaviour shared by all online planners: the identical-sharing fast
// path (including its collision regression: two different queries whose
// cache keys hash alike must never reuse each other's plan),
// capacity-aware plan selection and rejection (Algorithm 2), and
// NORMALIZE's occurrence counting.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "globalplan/global_plan.h"
#include "market/rig.h"
#include "online/greedy.h"
#include "online/managed_risk.h"
#include "online/normalize.h"
#include "workload/adversarial.h"

namespace dsm {
namespace {

TableSet TS(std::initializer_list<TableId> ids) {
  TableSet s;
  for (const TableId id : ids) s.Add(id);
  return s;
}

TEST(OnlinePlannerTest, AssignsIncreasingIds) {
  const Scenario sc = MakeGreedyTrap(3);
  auto rig = MakeRig(sc);
  GreedyPlanner planner(rig.ctx);
  for (size_t i = 0; i < sc.sharings.size(); ++i) {
    const auto choice = planner.ProcessSharing(sc.sharings[i]);
    ASSERT_TRUE(choice.ok());
    EXPECT_EQ(choice->id, i + 1);
  }
}

TEST(OnlinePlannerTest, IdenticalSharingFastPath) {
  const Scenario sc = MakeGreedyTrap(2);
  auto rig = MakeRig(sc);
  GreedyPlanner planner(rig.ctx);
  const auto first = planner.ProcessSharing(sc.sharings[0]);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->reused_identical);

  const auto second = planner.ProcessSharing(sc.sharings[0]);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->reused_identical);
  EXPECT_NEAR(second->marginal_cost, 0.0, 1e-9);
}

TEST(OnlinePlannerTest, SameQueryDifferentDestinationNotFastPathed) {
  Scenario sc = MakeGreedyTrap(1);
  sc.cluster->AddServer("s1");
  auto rig = MakeRig(sc);
  GreedyPlanner planner(rig.ctx);
  ASSERT_TRUE(planner.ProcessSharing(sc.sharings[0]).ok());
  const Sharing moved(sc.sharings[0].tables(), {}, /*destination=*/1,
                      "other");
  const auto choice = planner.ProcessSharing(moved);
  ASSERT_TRUE(choice.ok());
  EXPECT_FALSE(choice->reused_identical);
}

TEST(OnlinePlannerTest, GreedyPicksCheapestMarginalPlan) {
  const Scenario sc = MakeGreedyTrap(1, /*risky_cost=*/100.0,
                                     /*alt_cost=*/10.0, 1e-3);
  auto rig = MakeRig(sc);
  GreedyPlanner planner(rig.ctx);
  const auto choice = planner.ProcessSharing(sc.sharings[0]);
  ASSERT_TRUE(choice.ok());
  EXPECT_NEAR(choice->marginal_cost, 10.0, 1e-6);
  EXPECT_EQ(choice->plans_considered, 2u);
}

TEST(OnlinePlannerTest, CapacityForcesSecondBestPlan) {
  // One server too small for anything: rejection (Algorithm 2's branch).
  Scenario sc = MakeGreedyTrap(1);
  sc.cluster->mutable_server(0).capacity_tuples_per_unit = 0.5;
  auto rig = MakeRig(sc);
  GreedyPlanner planner(rig.ctx);
  const auto choice = planner.ProcessSharing(sc.sharings[0]);
  EXPECT_EQ(choice.status().code(), StatusCode::kCapacityExceeded);
}

TEST(OnlinePlannerTest, CapacityRejectionLeavesGlobalPlanUntouched) {
  Scenario sc = MakeGreedyTrap(1);
  sc.cluster->mutable_server(0).capacity_tuples_per_unit = 0.5;
  auto rig = MakeRig(sc);
  ManagedRiskPlanner planner(rig.ctx);
  ASSERT_FALSE(planner.ProcessSharing(sc.sharings[0]).ok());
  EXPECT_DOUBLE_EQ(rig.global_plan->TotalCost(), 0.0);
  EXPECT_EQ(rig.global_plan->num_sharings(), 0u);
}

TEST(OnlinePlannerTest, CapacityAdmitsUntilFull) {
  // Each integrated 3-way join loads the single server with 4 delta
  // tuples/unit (two joins × two inputs); capacity 10 admits two sharings
  // (8) and rejects the third (12 > 10).
  Scenario sc = MakeGreedyTrap(3);
  sc.cluster->mutable_server(0).capacity_tuples_per_unit = 10.0;
  auto rig = MakeRig(sc);
  GreedyPlanner planner(rig.ctx);
  EXPECT_TRUE(planner.ProcessSharing(sc.sharings[0]).ok());
  EXPECT_TRUE(planner.ProcessSharing(sc.sharings[1]).ok());
  EXPECT_EQ(planner.ProcessSharing(sc.sharings[2]).status().code(),
            StatusCode::kCapacityExceeded);
}

TEST(NormalizePlannerTest, CountsContainedSubexpressions) {
  const Scenario sc = MakeGreedyTrap(3);
  auto rig = MakeRig(sc);
  NormalizePlanner planner(rig.ctx);
  ASSERT_TRUE(planner.ProcessSharing(sc.sharings[0]).ok());
  ASSERT_TRUE(planner.ProcessSharing(sc.sharings[1]).ok());
  // ab is contained in both sharings seen so far.
  EXPECT_EQ(planner.OccurrenceCount(TS({0, 1})), 2);
  // bc_1 only in the first.
  EXPECT_EQ(planner.OccurrenceCount(TS({1, 2})), 1);
  // Never-seen subexpression.
  EXPECT_EQ(planner.OccurrenceCount(TS({0, 3})), 0);
}

TEST(OnlinePlannerTest, PlannerNamesAreDistinct) {
  const Scenario sc = MakeGreedyTrap(1);
  auto r1 = MakeRig(sc);
  auto r2 = MakeRig(sc);
  auto r3 = MakeRig(sc);
  GreedyPlanner g(r1.ctx);
  NormalizePlanner n(r2.ctx);
  ManagedRiskPlanner m(r3.ctx);
  EXPECT_STREQ(g.name(), "Greedy");
  EXPECT_STREQ(n.name(), "Normalize");
  EXPECT_STREQ(m.name(), "ManagedRisk");
}

// Two different queries whose identical-plan cache keys hash alike:
// ViewKeyHash mixes (column << 24) ^ bits(value), so a predicate on column
// 0 with value v and one on column 1 with v's bit 24 flipped collide. The
// planner must not reuse the first sharing's plan for the second — that
// would deliver wrong data — and each query's resubmission reuses its own.
TEST(IdenticalPlanCollisionTest, CollisionDoesNotReuseWrongPlan) {
  // A four-server Twitter market with the default cost model.
  const TwitterScenario world = MakeTwitterScenario(4);
  const Rig rig = MakeRig(world);
  GreedyPlanner planner(rig.ctx);

  const double v = 500.0;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  bits ^= uint64_t{1} << 24;
  double flipped;
  std::memcpy(&flipped, &bits, sizeof(flipped));
  const TableId users = world.tables.users;
  const TableSet tables = TS({users, world.tables.tweets});
  const Sharing by_uid(tables, {Predicate{users, 0, CompareOp::kLt, v}}, 0);
  const Sharing by_name(tables,
                        {Predicate{users, 1, CompareOp::kLt, flipped}}, 0);
  ASSERT_EQ(DeliveredQueryHash()(DeliveredQuery(by_uid)),
            DeliveredQueryHash()(DeliveredQuery(by_name)));
  ASSERT_FALSE(by_uid.ResultKey() == by_name.ResultKey());

  const auto c1 = planner.ProcessSharing(by_uid);
  ASSERT_TRUE(c1.ok());
  EXPECT_FALSE(c1->reused_identical);

  // Same cache hash as by_uid's entry, but a different query, so the fast
  // path must not fire.
  const auto c2 = planner.ProcessSharing(by_name);
  ASSERT_TRUE(c2.ok());
  EXPECT_FALSE(c2->reused_identical);
  EXPECT_TRUE(c1->plan.root().key == by_uid.ResultKey());
  EXPECT_TRUE(c2->plan.root().key == by_name.ResultKey());

  // Genuinely identical resubmissions still reuse, each its own plan.
  const auto c3 = planner.ProcessSharing(by_name);
  ASSERT_TRUE(c3.ok());
  EXPECT_TRUE(c3->reused_identical);
  EXPECT_TRUE(c3->plan.root().key == by_name.ResultKey());
  const auto c4 = planner.ProcessSharing(by_uid);
  ASSERT_TRUE(c4.ok());
  EXPECT_TRUE(c4->reused_identical);
  EXPECT_TRUE(c4->plan.root().key == by_uid.ResultKey());
}

}  // namespace
}  // namespace dsm
