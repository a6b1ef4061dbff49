// Integration tests across the whole stack: Twitter workload -> online
// planning -> global plan -> fair costing, plus planner/costing/maintenance
// interplay on realistic sequences.

#include <gtest/gtest.h>

#include <set>

#include "costing/even_split.h"
#include "costing/fairness_metrics.h"
#include "costing/lpc.h"
#include "costing/savings.h"
#include "maintain/delta_engine.h"
#include "market/rig.h"
#include "market/simulation.h"
#include "online/greedy.h"
#include "online/managed_risk.h"

namespace dsm {
namespace {

std::vector<Sharing> Sequence(const TwitterScenario& world, size_t n,
                              int max_preds, uint64_t seed) {
  TwitterSequenceOptions options;
  options.num_sharings = n;
  options.max_predicates = max_preds;
  options.seed = seed;
  return GenerateTwitterSequence(*world.catalog, world.tables, *world.cluster,
                                 options);
}

TEST(EndToEndTest, AllTwitterBaseSharingsPlannable) {
  const TwitterScenario world = MakeTwitterScenario(6);
  const Rig rig = MakeRig(world);
  ManagedRiskPlanner planner(rig.ctx);
  for (const Sharing& s : TwitterBaseSharings(world.tables, *world.cluster)) {
    const auto choice = planner.ProcessSharing(s);
    ASSERT_TRUE(choice.ok()) << s.ToString(*world.catalog) << ": "
                             << choice.status().ToString();
    EXPECT_GE(choice->marginal_cost, 0.0);
  }
  EXPECT_EQ(rig.global_plan->num_sharings(), 25u);
  EXPECT_GT(rig.global_plan->TotalCost(), 0.0);
}

TEST(EndToEndTest, ReuseMakesGlobalPlanSublinear) {
  // 30 sharings drawn from 25 bases share many subexpressions: the global
  // plan must cost less than the sum of standalone plans.
  const TwitterScenario world = MakeTwitterScenario(6);
  const Rig rig = MakeRig(world);
  ManagedRiskPlanner planner(rig.ctx);
  double standalone_sum = 0.0;
  for (const Sharing& s : Sequence(world, 30, 0, 17)) {
    const auto choice = planner.ProcessSharing(s);
    ASSERT_TRUE(choice.ok());
    standalone_sum += PlanCost(choice->plan, world.model.get());
  }
  EXPECT_LT(rig.global_plan->TotalCost(), 0.8 * standalone_sum);
}

TEST(EndToEndTest, FairCostBeatsEvenSplitOnFairness) {
  // The Figure 7 comparison in miniature: FAIRCOST achieves metric 1.0
  // everywhere; the even-split baseline generally does not.
  const TwitterScenario world = MakeTwitterScenario(6);
  const Rig rig = MakeRig(world);
  ManagedRiskPlanner planner(rig.ctx);
  for (const Sharing& s : Sequence(world, 40, 2, 23)) {
    ASSERT_TRUE(planner.ProcessSharing(s).ok());
  }

  LpcCalculator lpc(rig.enumerator.get(), world.model.get());
  const auto problem = BuildFairCostProblem(*rig.global_plan, &lpc);
  ASSERT_TRUE(problem.ok());

  const auto fair = FairCost::Compute(problem->entries,
                                      problem->global_cost);
  ASSERT_TRUE(fair.ok());
  const FairnessReport fair_report =
      EvaluateFairness(problem->entries, problem->global_cost, fair->ac);
  EXPECT_DOUBLE_EQ(fair_report.lpc_fraction, 1.0);
  EXPECT_DOUBLE_EQ(fair_report.identical_fraction, 1.0);
  EXPECT_DOUBLE_EQ(fair_report.contained_fraction, 1.0);
  EXPECT_NEAR(fair_report.recovery_error, 0.0, 1e-6);

  const auto even = EvenSplitCosts(*rig.global_plan, problem->ids);
  ASSERT_TRUE(even.ok());
  const FairnessReport even_report =
      EvaluateFairness(problem->entries, problem->global_cost, *even);
  EXPECT_NEAR(even_report.recovery_error, 0.0, 1e-6);
  EXPECT_GE(fair_report.alpha, even_report.alpha - 1e-9);
}

// The fairness metric judges criterion (4) as FAIRCOST enforces it,
// AC <= max(0, GPC − α·saving_term). On this Figure 7 run FAIRCOST bills
// some sharings 0 (their saving terms exceed their GPCs) at α ≈ 0.91;
// the metric must read that α, not the one a zero bill would imply if the
// bound were not floored.
TEST(EndToEndTest, FairnessMetricAlphaIsFairCostAlpha) {
  const TwitterScenario world = MakeTwitterScenario(6);
  const Rig rig = MakeRig(world);
  ManagedRiskPlanner planner(rig.ctx);
  for (const Sharing& s : Sequence(world, 20, 2, 820)) {
    ASSERT_TRUE(planner.ProcessSharing(s).ok());
  }
  LpcCalculator lpc(rig.enumerator.get(), world.model.get());
  const auto problem = BuildFairCostProblem(*rig.global_plan, &lpc);
  ASSERT_TRUE(problem.ok());
  const auto fair =
      FairCost::Compute(problem->entries, problem->global_cost);
  ASSERT_TRUE(fair.ok());
  ASSERT_LT(fair->alpha, 1.0);
  size_t billed_zero = 0;
  for (size_t i = 0; i < fair->ac.size(); ++i) {
    if (fair->ac[i] == 0.0) {
      ++billed_zero;
      EXPECT_GT(problem->entries[i].saving_term, problem->entries[i].gpc);
    }
  }
  EXPECT_GT(billed_zero, 0u);
  const FairnessReport report =
      EvaluateFairness(problem->entries, problem->global_cost, fair->ac);
  EXPECT_NEAR(report.alpha, fair->alpha, 1e-9);
}

TEST(EndToEndTest, AttributedCostsNeverExceedLpc) {
  const TwitterScenario world = MakeTwitterScenario(6);
  const Rig rig = MakeRig(world);
  GreedyPlanner planner(rig.ctx);
  for (const Sharing& s : Sequence(world, 25, 1, 31)) {
    ASSERT_TRUE(planner.ProcessSharing(s).ok());
  }
  LpcCalculator lpc(rig.enumerator.get(), world.model.get());
  const auto problem = BuildFairCostProblem(*rig.global_plan, &lpc);
  ASSERT_TRUE(problem.ok());
  const auto fair =
      FairCost::Compute(problem->entries, problem->global_cost);
  ASSERT_TRUE(fair.ok());
  for (size_t i = 0; i < fair->ac.size(); ++i) {
    EXPECT_LE(fair->ac[i], problem->entries[i].lpc * (1 + 1e-9) + 1e-9);
  }
}

TEST(EndToEndTest, ThreePlannersProduceComparableCosts) {
  // Section 6.2.1: "On average, the global plans generated by the three
  // algorithms have similar costs" — within a small factor here.
  std::vector<double> costs;
  for (const PlannerKind kind : kPlannerKinds) {
    const TwitterScenario world = MakeTwitterScenario(6);
    const Rig rig = MakeRig(world);
    const std::unique_ptr<OnlinePlanner> planner = MakePlanner(kind, rig.ctx);
    for (const Sharing& s : Sequence(world, 30, 0, 47)) {
      ASSERT_TRUE(planner->ProcessSharing(s).ok());
    }
    costs.push_back(rig.global_plan->TotalCost());
  }
  const double lo = std::min({costs[0], costs[1], costs[2]});
  const double hi = std::max({costs[0], costs[1], costs[2]});
  EXPECT_LT(hi / lo, 3.0);
}

TEST(EndToEndTest, PlannedViewMaintainedByDeltaEngine) {
  // Close the loop: plan a sharing, then actually maintain its view.
  const TwitterScenario world = MakeTwitterScenario(6);
  const Rig rig = MakeRig(world);
  ManagedRiskPlanner planner(rig.ctx);
  const auto base = TwitterBaseSharings(world.tables, *world.cluster);
  const Sharing& s5 = base[4];  // USERS ⋈ TWEETS
  ASSERT_TRUE(planner.ProcessSharing(s5).ok());

  DeltaEngine engine(world.catalog.get());
  ASSERT_TRUE(engine.RegisterBase(world.tables.users).ok());
  ASSERT_TRUE(engine.RegisterBase(world.tables.tweets).ok());
  const auto view = engine.RegisterView(s5.ResultKey());
  ASSERT_TRUE(view.ok());

  Rng rng(71);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine
                    .ApplyUpdate(world.tables.users,
                                 {RandomTupleForTable(
                                     *world.catalog, world.tables.users, &rng)},
                                 {})
                    .ok());
    ASSERT_TRUE(
        engine
            .ApplyUpdate(world.tables.tweets,
                         {RandomTupleForTable(*world.catalog,
                                              world.tables.tweets, &rng)},
                         {})
            .ok());
  }
  const auto expected = engine.Recompute(s5.ResultKey());
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(engine.view(*view)->BagEquals(*expected));
}

}  // namespace
}  // namespace dsm
