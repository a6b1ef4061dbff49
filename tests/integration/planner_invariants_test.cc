// Cross-planner invariants over randomized scenarios: properties every
// online planner must satisfy regardless of scoring rule.

#include <gtest/gtest.h>

#include "market/rig.h"
#include "online/exhaustive.h"
#include "online/greedy.h"
#include "online/managed_risk.h"
#include "online/normalize.h"
#include "workload/adversarial.h"

namespace dsm {
namespace {

struct Case {
  uint64_t seed;
  int algo;  // 0 greedy, 1 normalize, 2 managed-risk
};

class PlannerInvariantTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {
 protected:
  std::unique_ptr<OnlinePlanner> Make(const PlannerContext& ctx) const {
    switch (std::get<1>(GetParam())) {
      case 0:
        return std::make_unique<GreedyPlanner>(ctx);
      case 1:
        return std::make_unique<NormalizePlanner>(ctx);
      default:
        return std::make_unique<ManagedRiskPlanner>(ctx);
    }
  }
  uint64_t seed() const { return std::get<0>(GetParam()); }
};

TEST_P(PlannerInvariantTest, GlobalCostNeverExceedsSumOfStandalonePlans) {
  // Reuse can only help: the online global plan costs at most the sum of
  // the cheapest standalone plans... not guaranteed for risk-taking
  // planners mid-sequence, but it IS bounded by the sum of the *chosen*
  // plans' standalone costs.
  const Scenario sc = MakeRandomThreeWay(seed(), 12, 10);
  auto rig = MakeRig(sc);
  const auto planner = Make(rig.ctx);
  double standalone_sum = 0.0;
  for (const Sharing& sharing : sc.sharings) {
    const auto choice = planner->ProcessSharing(sharing);
    ASSERT_TRUE(choice.ok());
    standalone_sum += PlanCost(choice->plan, sc.model.get());
  }
  EXPECT_LE(rig.global_plan->TotalCost(), standalone_sum + 1e-6);
}

TEST_P(PlannerInvariantTest, MarginalCostsSumToGlobalCost) {
  const Scenario sc = MakeRandomThreeWay(seed() ^ 0xf00d, 15, 10);
  auto rig = MakeRig(sc);
  const auto planner = Make(rig.ctx);
  double marginal_sum = 0.0;
  for (const Sharing& sharing : sc.sharings) {
    const auto choice = planner->ProcessSharing(sharing);
    ASSERT_TRUE(choice.ok());
    marginal_sum += choice->marginal_cost;
  }
  EXPECT_NEAR(rig.global_plan->TotalCost(), marginal_sum, 1e-6);
}

TEST_P(PlannerInvariantTest, DeterministicAcrossRuns) {
  const Scenario sc = MakeRandomThreeWay(seed() ^ 0xcafe, 10, 10);
  double costs[2];
  for (int run = 0; run < 2; ++run) {
    auto rig = MakeRig(sc);
    const auto planner = Make(rig.ctx);
    costs[run] = RunSequence(planner.get(), sc);
  }
  EXPECT_DOUBLE_EQ(costs[0], costs[1]);
}

TEST_P(PlannerInvariantTest, NeverBelowOfflineOptimum) {
  // Small instances only: the exhaustive optimum lower-bounds every
  // online planner.
  const Scenario sc = MakeRandomThreeWay(seed() ^ 0xd1ce, 4, 8);
  auto rig_online = MakeRig(sc);
  const auto planner = Make(rig_online.ctx);
  const double online_cost = RunSequence(planner.get(), sc);

  auto rig_ex = MakeRig(sc);
  ExhaustivePlanner exhaustive(rig_ex.ctx);
  const auto optimum = exhaustive.Solve(sc.sharings);
  ASSERT_TRUE(optimum.ok());
  EXPECT_GE(online_cost + 1e-9, optimum->total_cost);
}

TEST_P(PlannerInvariantTest, RepeatedQueryIsFree) {
  const Scenario sc = MakeRandomThreeWay(seed() ^ 0xabba, 3, 10);
  auto rig = MakeRig(sc);
  const auto planner = Make(rig.ctx);
  ASSERT_TRUE(planner->ProcessSharing(sc.sharings[0]).ok());
  const double before = rig.global_plan->TotalCost();
  const auto repeat = planner->ProcessSharing(sc.sharings[0]);
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat->reused_identical);
  EXPECT_NEAR(rig.global_plan->TotalCost(), before, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByAlgo, PlannerInvariantTest,
    ::testing::Combine(::testing::Values(11ull, 22ull, 33ull, 44ull),
                       ::testing::Values(0, 1, 2)));

}  // namespace
}  // namespace dsm
