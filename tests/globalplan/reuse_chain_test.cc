// Regression tests for chained reuse: residual filter/copy views created
// for one sharing becoming reuse sources for later sharings, and their
// lifetime under removals.

#include <gtest/gtest.h>

#include "globalplan/global_plan.h"
#include "market/rig.h"
#include "plan/enumerator.h"
#include "testing/plans.h"
#include "testing/dry_run.h"
#include "workload/adversarial.h"

namespace dsm {
namespace {

TableSet TS(std::initializer_list<TableId> ids) {
  TableSet s;
  for (const TableId id : ids) s.Add(id);
  return s;
}

Predicate P(TableId t, double v) {
  Predicate p;
  p.table = t;
  p.column = 0;
  p.op = CompareOp::kLt;
  p.value = v;
  return p;
}

class ReuseChainTest : public ::testing::Test {
 protected:
  // Greedy-trap tables a, b, c1 with c[ab]=4, c[(ab)c]=10, c[a(bc)]=8.
  ReuseChainTest() : sc_(MakeGreedyTrap(1, 4.0, 16.0, 10.0)) {
    rig_ = MakeRig(sc_);
  }

  SharingPlan RootFilterPlan(const Sharing& sharing) {
    const auto plans = testing_support::EnumerateAll(*rig_.enumerator, sharing);
    EXPECT_TRUE(plans.ok());
    for (const SharingPlan& plan : *plans) {
      if (plan.root().type == PlanNodeType::kFilterCopy &&
          plan.nodes[static_cast<size_t>(plan.root().left)]
              .key.predicates.empty()) {
        return plan;
      }
    }
    ADD_FAILURE() << "no root-filter plan";
    return plans->front();
  }

  SharingPlan AnyPlan(const Sharing& sharing) {
    const auto plans = testing_support::EnumerateAll(*rig_.enumerator, sharing);
    EXPECT_TRUE(plans.ok());
    return plans->front();
  }

  Scenario sc_;
  Rig rig_;
};

TEST_F(ReuseChainTest, ResidualViewBecomesReuseSource) {
  // S1 materializes ab. S2 = σ(ab) via a residual filter view. S3 asks
  // for the same filtered data: it must reuse the residual view directly
  // (zero marginal), not build a second filter.
  const Sharing full(TS({0, 1}), {}, 0, "full");
  ASSERT_TRUE(rig_.global_plan->AddSharing(1, full, AnyPlan(full)).ok());
  const double base_views =
      static_cast<double>(rig_.global_plan->num_alive_views());

  const Sharing filtered(TS({0, 1}), {P(0, 100)}, 0, "filtered");
  const auto added2 =
      rig_.global_plan->AddSharing(2, filtered, RootFilterPlan(filtered));
  ASSERT_TRUE(added2.ok());
  const size_t views_after_2 = rig_.global_plan->num_alive_views();
  EXPECT_EQ(views_after_2, static_cast<size_t>(base_views) + 1);

  const auto added3 =
      rig_.global_plan->AddSharing(3, filtered, RootFilterPlan(filtered));
  ASSERT_TRUE(added3.ok());
  EXPECT_NEAR((*added3)->marginal_cost, 0.0, 1e-9);
  // No new view: the residual filter itself was reused.
  EXPECT_EQ(rig_.global_plan->num_alive_views(), views_after_2);
}

TEST_F(ReuseChainTest, ResidualSurvivesItsCreatorsRemoval) {
  const Sharing full(TS({0, 1}), {}, 0, "full");
  ASSERT_TRUE(rig_.global_plan->AddSharing(1, full, AnyPlan(full)).ok());
  const Sharing filtered(TS({0, 1}), {P(0, 100)}, 0, "filtered");
  ASSERT_TRUE(rig_.global_plan
                  ->AddSharing(2, filtered, RootFilterPlan(filtered))
                  .ok());
  ASSERT_TRUE(rig_.global_plan
                  ->AddSharing(3, filtered, RootFilterPlan(filtered))
                  .ok());

  // Removing sharing 2 (which created the residual filter view) must keep
  // the view alive: sharing 3 still consumes it.
  const double cost_before = rig_.global_plan->TotalCost();
  ASSERT_TRUE(rig_.global_plan->RemoveSharing(2).ok());
  EXPECT_NEAR(rig_.global_plan->TotalCost(), cost_before, 1e-9);

  // Removing sharing 3 drops the filter view; removing sharing 1 empties
  // the plan entirely.
  ASSERT_TRUE(rig_.global_plan->RemoveSharing(3).ok());
  ASSERT_TRUE(rig_.global_plan->RemoveSharing(1).ok());
  EXPECT_EQ(rig_.global_plan->num_alive_views(), 0u);
  EXPECT_NEAR(rig_.global_plan->TotalCost(), 0.0, 1e-12);
}

TEST_F(ReuseChainTest, SubsumptionPrefersTighterSource) {
  // With both ab and σ_{x<100}(ab) materialized, a request for
  // σ_{x<100 ∧ x<50}(ab)... any subsuming source works; the evaluator
  // must pick one with minimal residual cost and stay consistent between
  // Evaluate and Add.
  const Sharing full(TS({0, 1}), {}, 0, "full");
  ASSERT_TRUE(rig_.global_plan->AddSharing(1, full, AnyPlan(full)).ok());
  const Sharing filtered(TS({0, 1}), {P(0, 100)}, 0, "filtered");
  ASSERT_TRUE(rig_.global_plan
                  ->AddSharing(2, filtered, RootFilterPlan(filtered))
                  .ok());

  const Sharing narrower(TS({0, 1}), {P(0, 100), P(0, 50)}, 0, "narrow");
  const SharingPlan plan = RootFilterPlan(narrower);
  const auto probe =
      testing_support::DryRun(*rig_.global_plan, plan, sc_.model.get());
  const auto added = rig_.global_plan->AddSharing(3, narrower, plan);
  ASSERT_TRUE(added.ok());
  EXPECT_NEAR(probe.marginal_cost, (*added)->marginal_cost, 1e-12);
  // Zero-cost filter in the table-driven model either way.
  EXPECT_NEAR((*added)->marginal_cost, 0.0, 1e-9);
}

TEST_F(ReuseChainTest, ForbiddenKeyStillAllowsDescendantReuse) {
  // Forbidding reuse of the root key must not forbid reusing ab below it.
  const Sharing full(TS({0, 1, 2}), {}, 0, "abc");
  const auto plans = testing_support::EnumerateAll(*rig_.enumerator, full);
  ASSERT_TRUE(plans.ok());
  const SharingPlan* via_ab = nullptr;
  for (const SharingPlan& plan : *plans) {
    for (const PlanNode& n : plan.nodes) {
      if (n.is_join() && n.key.tables == TS({0, 1})) via_ab = &plan;
    }
  }
  ASSERT_NE(via_ab, nullptr);
  ASSERT_TRUE(rig_.global_plan->AddSharing(1, full, *via_ab).ok());

  GlobalPlan::AddOptions options;
  std::unordered_set<ViewKey, ViewKeyHash> forbid = {
      ViewKey(TS({0, 1, 2}))};
  options.forbid_reuse_keys = &forbid;
  const auto added =
      rig_.global_plan->AddSharing(2, full, *via_ab, options);
  ASSERT_TRUE(added.ok());
  // Paid: the (ab)c join afresh (10); reused: ab (4 saved).
  EXPECT_NEAR((*added)->marginal_cost, 10.0, 1e-9);
}

}  // namespace
}  // namespace dsm
