// The even-split baseline: recovers cost(GP) by construction but violates
// the fairness criteria — exactly the contrast Figure 7 plots.

#include "costing/even_split.h"

#include <gtest/gtest.h>

#include "cost/table_cost_model.h"
#include "market/rig.h"
#include "plan/enumerator.h"
#include "testing/plans.h"
#include "workload/adversarial.h"

namespace dsm {
namespace {

TableSet TS(std::initializer_list<TableId> ids) {
  TableSet s;
  for (const TableId id : ids) s.Add(id);
  return s;
}

// Shared fixture: greedy-trap tables a, b, c1, c2 with
// c[ab]=4, c[(ab)c_x]=10, c[bc_x]=8/2, c[a(bc_x)]=...
class EvenSplitTest : public ::testing::Test {
 protected:
  EvenSplitTest() : scenario_(MakeGreedyTrap(2, 4.0, 16.0, 10.0)) {
    rig_ = MakeRig(scenario_);
  }

  SharingPlan PlanWith(const Sharing& sharing, TableSet wanted_join) {
    const auto plans = testing_support::EnumerateAll(*rig_.enumerator, sharing);
    EXPECT_TRUE(plans.ok());
    for (const SharingPlan& plan : *plans) {
      for (const PlanNode& node : plan.nodes) {
        if (node.is_join() && node.key.tables == wanted_join) return plan;
      }
    }
    return plans->front();
  }

  Scenario scenario_;
  Rig rig_;
};

TEST_F(EvenSplitTest, SplitsSharedNodeEvenly) {
  // S1 = (a,b) and S2 = (a,b,c1) via (ab)c1: ab (cost 4) is shared, the
  // (ab)c1 join (cost 10) is S2's alone. Even split: S1 = 2, S2 = 2 + 10.
  const Sharing s1(TS({0, 1}), {}, 0, "s1");
  const Sharing s2(TS({0, 1, 2}), {}, 0, "s2");
  ASSERT_TRUE(
      rig_.global_plan->AddSharing(1, s1, PlanWith(s1, TS({0, 1}))).ok());
  ASSERT_TRUE(
      rig_.global_plan->AddSharing(2, s2, PlanWith(s2, TS({0, 1}))).ok());

  const auto ac = EvenSplitCosts(*rig_.global_plan, {1, 2});
  ASSERT_TRUE(ac.ok());
  EXPECT_NEAR((*ac)[0], 2.0, 1e-9);
  EXPECT_NEAR((*ac)[1], 12.0, 1e-9);
}

TEST_F(EvenSplitTest, RecoversGlobalCost) {
  const Sharing s1(TS({0, 1}), {}, 0, "s1");
  const Sharing s2(TS({0, 1, 2}), {}, 0, "s2");
  const Sharing s3(TS({0, 1, 3}), {}, 0, "s3");
  ASSERT_TRUE(
      rig_.global_plan->AddSharing(1, s1, PlanWith(s1, TS({0, 1}))).ok());
  ASSERT_TRUE(
      rig_.global_plan->AddSharing(2, s2, PlanWith(s2, TS({0, 1}))).ok());
  ASSERT_TRUE(
      rig_.global_plan->AddSharing(3, s3, PlanWith(s3, TS({0, 1}))).ok());
  const auto ac = EvenSplitCosts(*rig_.global_plan, {1, 2, 3});
  ASSERT_TRUE(ac.ok());
  const double total = (*ac)[0] + (*ac)[1] + (*ac)[2];
  EXPECT_NEAR(total, rig_.global_plan->TotalCost(), 1e-9);
}

TEST_F(EvenSplitTest, ViolatesIdenticalCriterion) {
  // Two identical sharings whose plans differ (e.g. due to past capacity
  // limits) get different even-split charges — violating criterion (1),
  // which FAIRCOST enforces by construction.
  const Sharing s2a(TS({0, 1, 2}), {}, 0, "first");
  const Sharing s2b(TS({0, 1, 2}), {}, 0, "second");
  ASSERT_TRUE(
      rig_.global_plan->AddSharing(1, s2a, PlanWith(s2a, TS({0, 1}))).ok());
  // Same query, forced to compute its own chain via the other join order
  // (reuse of the shared result is forbidden to pin the plans apart).
  GlobalPlan::AddOptions options;
  std::unordered_set<ViewKey, ViewKeyHash> forbid = {
      ViewKey(TS({0, 1, 2}))};
  options.forbid_reuse_keys = &forbid;
  ASSERT_TRUE(rig_.global_plan
                  ->AddSharing(2, s2b, PlanWith(s2b, TS({1, 2})), options)
                  .ok());
  const auto ac = EvenSplitCosts(*rig_.global_plan, {1, 2});
  ASSERT_TRUE(ac.ok());
  EXPECT_GT(std::abs((*ac)[0] - (*ac)[1]), 1e-6);
}

TEST_F(EvenSplitTest, UnknownIdRejected) {
  EXPECT_EQ(EvenSplitCosts(*rig_.global_plan, {7}).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace dsm
