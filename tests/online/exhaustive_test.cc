#include "market/rig.h"
#include "online/exhaustive.h"

#include <gtest/gtest.h>

#include "online/greedy.h"
#include "online/managed_risk.h"
#include "workload/adversarial.h"

namespace dsm {
namespace {

TEST(ExhaustiveTest, FindsTheSharedSubexpressionOptimum) {
  // Example 4.1 with 5 sharings: the optimum computes ab once (cost 100)
  // plus eps per sharing, while GREEDY pays 10 per sharing (50).
  const Scenario sc = MakeGreedyTrap(5, 100.0, 10.0, 1e-3);
  auto rig = MakeRig(sc);
  ExhaustivePlanner exhaustive(rig.ctx);
  const auto result = exhaustive.Solve(sc.sharings);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->completed);
  // Optimum here: 5 sharings at 10 each (50) beats 100 + 5 eps; with
  // risky=40 it would flip. Verify exhaustive picks min(10n, 100 + n*eps).
  EXPECT_NEAR(result->total_cost, std::min(50.0, 100.0 + 5 * 1e-3), 1e-6);
}

TEST(ExhaustiveTest, TakesRiskWhenItPays) {
  const Scenario sc = MakeGreedyTrap(5, /*risky_cost=*/20.0,
                                     /*alt_cost=*/10.0, 1e-3);
  auto rig = MakeRig(sc);
  ExhaustivePlanner exhaustive(rig.ctx);
  const auto result = exhaustive.Solve(sc.sharings);
  ASSERT_TRUE(result.ok());
  // 20 + 5 eps beats 50.
  EXPECT_NEAR(result->total_cost, 20.0 + 5 * 1e-3, 1e-6);
}

TEST(ExhaustiveTest, NeverWorseThanOnlinePlanners) {
  for (const uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    const Scenario sc = MakeRandomThreeWay(seed, 4, 8);
    auto rig_e = MakeRig(sc);
    ExhaustivePlanner exhaustive(rig_e.ctx);
    const auto result = exhaustive.Solve(sc.sharings);
    ASSERT_TRUE(result.ok());

    auto rig_g = MakeRig(sc);
    GreedyPlanner greedy(rig_g.ctx);
    const double greedy_cost = RunSequence(&greedy, sc);

    auto rig_m = MakeRig(sc);
    ManagedRiskPlanner mr(rig_m.ctx);
    const double mr_cost = RunSequence(&mr, sc);

    EXPECT_LE(result->total_cost, greedy_cost + 1e-6) << "seed " << seed;
    EXPECT_LE(result->total_cost, mr_cost + 1e-6) << "seed " << seed;
  }
}

TEST(ExhaustiveTest, PlanAssignmentReproducesCost) {
  const Scenario sc = MakeRandomThreeWay(9, 4, 8);
  auto rig = MakeRig(sc);
  ExhaustivePlanner exhaustive(rig.ctx);
  const auto result = exhaustive.Solve(sc.sharings);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->plans.size(), sc.sharings.size());

  // Replaying the chosen plans yields exactly the reported total.
  GlobalPlan replay(sc.cluster.get(), sc.model.get());
  for (size_t i = 0; i < sc.sharings.size(); ++i) {
    ASSERT_TRUE(
        replay.AddSharing(i + 1, sc.sharings[i], result->plans[i]).ok());
  }
  EXPECT_NEAR(replay.TotalCost(), result->total_cost, 1e-9);
}

TEST(ExhaustiveTest, PlanCapLimitsSearch) {
  const Scenario sc = MakeRandomThreeWay(11, 3, 8);
  ExhaustiveOptions options;
  options.max_plans_per_sharing = 1;
  auto rig = MakeRig(sc);
  ExhaustivePlanner capped(rig.ctx, options);
  const auto capped_result = capped.Solve(sc.sharings);
  ASSERT_TRUE(capped_result.ok());

  auto rig_full = MakeRig(sc);
  ExhaustivePlanner full(rig_full.ctx);
  const auto full_result = full.Solve(sc.sharings);
  ASSERT_TRUE(full_result.ok());
  EXPECT_LE(full_result->total_cost, capped_result->total_cost + 1e-9);
}

TEST(ExhaustiveTest, InfeasibleWhenCapacityTooSmall) {
  Scenario sc = MakeGreedyTrap(2);
  sc.cluster->mutable_server(0).capacity_tuples_per_unit = 0.5;
  auto rig = MakeRig(sc);
  ExhaustivePlanner exhaustive(rig.ctx);
  EXPECT_EQ(exhaustive.Solve(sc.sharings).status().code(),
            StatusCode::kInfeasible);
}

}  // namespace
}  // namespace dsm
