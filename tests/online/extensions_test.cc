// Tests for the implemented future-work extensions (Section 7): the
// replanner (change existing sharings' plans when new ones arrive) and the
// speculative-view advisor (materialize views no sharing owns yet).

#include <gtest/gtest.h>

#include "market/rig.h"
#include "online/greedy.h"
#include "online/managed_risk.h"
#include "online/replanner.h"
#include "online/speculative.h"
#include "testing/plans.h"
#include "workload/adversarial.h"

namespace dsm {
namespace {

TableSet TS(std::initializer_list<TableId> ids) {
  TableSet s;
  for (const TableId id : ids) s.Add(id);
  return s;
}

TEST(ReplannerTest, RepairsGreedyMistakes) {
  // After GREEDY runs Example 4.1 badly, replanning can move early
  // sharings onto the (ab)c_x plans once ab exists... but ab never exists
  // under GREEDY. Seed the improvement by running MANAGEDRISK's sequence
  // with GREEDY, then replanning: the first replan round materializes
  // nothing new, so total cost must not increase.
  const Scenario sc = MakeGreedyTrap(12, 100.0, 10.0, 1e-3);
  auto rig = MakeRig(sc);
  GreedyPlanner greedy(rig.ctx);
  const double before = RunSequence(&greedy, sc);

  Replanner replanner(rig.ctx);
  const auto report = replanner.Improve();
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->cost_after, report->cost_before + 1e-9);
  EXPECT_NEAR(report->cost_before, before, 1e-9);
  EXPECT_NEAR(rig.global_plan->TotalCost(), report->cost_after, 1e-9);
}

TEST(ReplannerTest, MovesSharingsOntoExistingViews) {
  // Two sharings settle on their a(bc_x) plans (10 each); a later
  // provider-owned ab view appears; replanning moves both onto (ab)c_x
  // (eps each), cutting the bill from 40 to ~20.
  const Scenario sc2 = MakeGreedyTrap(2, 20.0, 10.0, 1e-3);
  auto rig2 = MakeRig(sc2);
  GreedyPlanner greedy2(rig2.ctx);
  ASSERT_TRUE(greedy2.ProcessSharing(sc2.sharings[0]).ok());  // a(bc1): 10
  ASSERT_TRUE(greedy2.ProcessSharing(sc2.sharings[1]).ok());  // a(bc2): 10
  const double before = rig2.global_plan->TotalCost();
  EXPECT_NEAR(before, 20.0, 1e-6);

  // Force ab into the plan via a direct two-table sharing, then replan.
  const Sharing ab_sharing(TS({0, 1}), {}, 0, "provider");
  const auto plans =
      testing_support::EnumerateAll(*rig2.enumerator, ab_sharing);
  ASSERT_TRUE(plans.ok());
  ASSERT_TRUE(
      rig2.global_plan->AddSharing(99, ab_sharing, plans->front()).ok());
  EXPECT_NEAR(rig2.global_plan->TotalCost(), 40.0, 1e-6);

  Replanner replanner(rig2.ctx);
  const auto report = replanner.Improve();
  ASSERT_TRUE(report.ok());
  // Both three-way sharings move onto (ab)c_x (eps each): 20 + 2 eps.
  EXPECT_NEAR(report->cost_after, 20.0 + 2e-3, 1e-6);
  EXPECT_GE(report->plans_changed, 2);
}

TEST(ReplannerTest, NoChangeOnAlreadyOptimalPlan) {
  const Scenario sc = MakeNormalizeTrap(5, 0.01);
  auto rig = MakeRig(sc);
  ManagedRiskPlanner mr(rig.ctx);
  const double before = RunSequence(&mr, sc);
  Replanner replanner(rig.ctx);
  const auto report = replanner.Improve();
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->cost_after, before, 1e-9);
}

TEST(SpeculativeTest, MaterializesHighRegretViews) {
  // Greedy-trap economics: pending regret on ab reaches risky_cost after
  // enough sharings; with regret_multiple=1 the advisor builds ab.
  const Scenario sc = MakeGreedyTrap(12, 100.0, 10.0, 1e-3);
  auto rig = MakeRig(sc);
  ManagedRiskPlanner mr(rig.ctx);
  SpeculativeOptions options;
  options.regret_multiple = 0.5;
  SpeculativeViewAdvisor advisor(&mr, options);

  int created = 0;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(mr.ProcessSharing(sc.sharings[static_cast<size_t>(i)]).ok());
    const auto report = advisor.MaybeSpeculate();
    ASSERT_TRUE(report.ok());
    created += report->views_created;
  }
  EXPECT_GE(created, 1);
  EXPECT_TRUE(rig.global_plan->HasUnpredicatedView(TS({0, 1})));
  // Later sharings reuse the speculative view: near-zero marginal.
  const auto choice = mr.ProcessSharing(sc.sharings[7]);
  ASSERT_TRUE(choice.ok());
  EXPECT_LT(choice->marginal_cost, 1.0);
}

TEST(SpeculativeTest, RespectsViewBudget) {
  const Scenario sc = MakeGreedyTrap(12, 1.0, 10.0, 1e-3);
  auto rig = MakeRig(sc);
  ManagedRiskPlanner mr(rig.ctx);
  SpeculativeOptions options;
  options.regret_multiple = 0.0;  // build anything pending
  options.max_views = 1;
  SpeculativeViewAdvisor advisor(&mr, options);
  ASSERT_TRUE(mr.ProcessSharing(sc.sharings[0]).ok());
  ASSERT_TRUE(advisor.MaybeSpeculate().ok());
  ASSERT_TRUE(mr.ProcessSharing(sc.sharings[1]).ok());
  ASSERT_TRUE(advisor.MaybeSpeculate().ok());
  EXPECT_LE(advisor.num_views(), 1u);
}

TEST(SpeculativeTest, NoSpeculationWithoutRegret) {
  const Scenario sc = MakeGreedyTrap(3, 100.0, 10.0, 1e-3);
  auto rig = MakeRig(sc);
  ManagedRiskPlanner mr(rig.ctx);
  SpeculativeViewAdvisor advisor(&mr);  // regret_multiple = 2
  const auto report = advisor.MaybeSpeculate();  // before any sharing
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->views_created, 0);
}

}  // namespace
}  // namespace dsm
