// Golden tests reproducing the arithmetic of the paper's worked examples:
// Example 4.1 (GREEDY unbounded), Example 4.2 (NORMALIZE unbounded) and
// Example 4.3 (MANAGEDRISK's behaviour on both sequences).

#include <gtest/gtest.h>

#include "market/rig.h"
#include "online/greedy.h"
#include "online/managed_risk.h"
#include "online/normalize.h"
#include "workload/adversarial.h"

namespace dsm {
namespace {

constexpr double kEps = 1e-3;

TEST(Example41, GreedyNeverTakesTheRisk) {
  // c[ab] = 100, C[a(bc_x)] = 10, c[(ab)c_x] = eps: GREEDY pays 10 per
  // sharing forever (Example 4.1's 10n).
  const int n = 40;
  const Scenario sc = MakeGreedyTrap(n, 100.0, 10.0, kEps);
  auto rig = MakeRig(sc);
  GreedyPlanner greedy(rig.ctx);
  const double cost = RunSequence(&greedy, sc);
  EXPECT_NEAR(cost, 10.0 * n, 0.5);
  // The shared subexpression is never materialized.
  TableSet ab;
  ab.Add(0);
  ab.Add(1);
  EXPECT_FALSE(rig.global_plan->HasUnpredicatedView(ab));
}

TEST(Example43, ManagedRiskSwitchesAtTheEleventhSharing) {
  // With c[ab] = 100 and alt cost 10, the pending regret reaches 100 after
  // ten sharings; MANAGEDRISK then pays for ab and all later sharings cost
  // ~eps (Example 4.3's walk-through).
  const int n = 40;
  const Scenario sc = MakeGreedyTrap(n, 100.0, 10.0, kEps);
  auto rig = MakeRig(sc);
  ManagedRiskPlanner mr(rig.ctx);

  TableSet ab;
  ab.Add(0);
  ab.Add(1);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(mr.ProcessSharing(sc.sharings[static_cast<size_t>(i)]).ok());
    EXPECT_FALSE(rig.global_plan->HasUnpredicatedView(ab))
        << "risk taken too early at sharing " << i + 1;
  }
  ASSERT_TRUE(mr.ProcessSharing(sc.sharings[10]).ok());
  EXPECT_TRUE(rig.global_plan->HasUnpredicatedView(ab))
      << "the 11th sharing should take the risk (rg = 100)";

  for (int i = 11; i < n; ++i) {
    const auto choice = mr.ProcessSharing(sc.sharings[static_cast<size_t>(i)]);
    ASSERT_TRUE(choice.ok());
    EXPECT_LT(choice->marginal_cost, 1.0)
        << "post-switch sharings should reuse ab";
  }

  // "The cost of MANAGEDRISK is no more than twice the optimal cost."
  const double optimal = 100.0 + n * kEps;
  EXPECT_LE(rig.global_plan->TotalCost(), 2.0 * optimal + 10.0 + 1.0);
}

TEST(Example41, ManagedRiskBeatsGreedyOnLongSequences) {
  const int n = 60;
  const Scenario sc = MakeGreedyTrap(n, 10.0, 10.0, kEps);
  auto rig_g = MakeRig(sc);
  GreedyPlanner greedy(rig_g.ctx);
  const double greedy_cost = RunSequence(&greedy, sc);

  auto rig_m = MakeRig(sc);
  ManagedRiskPlanner mr(rig_m.ctx);
  const double mr_cost = RunSequence(&mr, sc);

  EXPECT_NEAR(greedy_cost, 10.0 * n, 0.5);
  EXPECT_LT(mr_cost, 25.0);  // ~ 2 * c[ab]
  EXPECT_GT(greedy_cost / mr_cost, 20.0);  // the unbounded-ratio shape
}

TEST(Example41, NormalizeEventuallySwitches) {
  // NORMALIZE divides c[ab] by the occurrence count and switches once
  // c[ab]/x beats the alternative; its cost stays bounded here.
  const int n = 40;
  const Scenario sc = MakeGreedyTrap(n, 100.0, 10.0, kEps);
  auto rig = MakeRig(sc);
  NormalizePlanner norm(rig.ctx);
  const double cost = RunSequence(&norm, sc);
  // Switch at the 11th sharing (100/11 < 10): 10 early payments + 100.
  EXPECT_LT(cost, 10.0 * 11 + 100.0 + 5.0);
  TableSet ab;
  ab.Add(0);
  ab.Add(1);
  EXPECT_TRUE(rig.global_plan->HasUnpredicatedView(ab));
}

TEST(Example42, NormalizeTakesTheUnrewardedRisk) {
  // c[ab] = n; the last sharing's normalized cost lures NORMALIZE into
  // computing ab with no future sharing to amortize it (Example 4.2).
  const int n = 30;
  const Scenario sc = MakeNormalizeTrap(n, 0.01);
  auto rig = MakeRig(sc);
  NormalizePlanner norm(rig.ctx);
  const double cost = RunSequence(&norm, sc);
  // n + n*eps versus the optimal 1 + (n+1)*eps.
  EXPECT_GT(cost, 0.8 * n);
  TableSet ab;
  ab.Add(0);
  ab.Add(1);
  EXPECT_TRUE(rig.global_plan->HasUnpredicatedView(ab));
}

TEST(Example43, ManagedRiskDeclinesTheUnrewardedRisk) {
  // rg_n(ab) = (n-1)*eps is far below c[ab] = n: MANAGEDRISK keeps the
  // cheap plan and is optimal on Example 4.2's sequence.
  const int n = 30;
  const double eps = 0.01;
  const Scenario sc = MakeNormalizeTrap(n, eps);
  auto rig = MakeRig(sc);
  ManagedRiskPlanner mr(rig.ctx);
  const double cost = RunSequence(&mr, sc);
  const double optimal = (n - 1) * eps + 1.0 + 2 * eps;
  EXPECT_NEAR(cost, optimal, 0.05);
  TableSet ab;
  ab.Add(0);
  ab.Add(1);
  EXPECT_FALSE(rig.global_plan->HasUnpredicatedView(ab));
}

TEST(Example42, GreedyIsOptimalWhenRiskDoesNotPay) {
  const int n = 30;
  const double eps = 0.01;
  const Scenario sc = MakeNormalizeTrap(n, eps);
  auto rig = MakeRig(sc);
  GreedyPlanner greedy(rig.ctx);
  const double cost = RunSequence(&greedy, sc);
  EXPECT_NEAR(cost, (n - 1) * eps + 1.0 + 2 * eps, 0.05);
}

TEST(Example42, NormalizeVersusManagedRiskRatioGrowsWithN) {
  for (const int n : {10, 30, 60}) {
    const Scenario sc = MakeNormalizeTrap(n, 0.01);
    auto rig_n = MakeRig(sc);
    NormalizePlanner norm(rig_n.ctx);
    const double norm_cost = RunSequence(&norm, sc);
    auto rig_m = MakeRig(sc);
    ManagedRiskPlanner mr(rig_m.ctx);
    const double mr_cost = RunSequence(&mr, sc);
    EXPECT_GT(norm_cost / mr_cost, 0.5 * n);
  }
}

TEST(ManagedRiskAblation, DisablingRegretSubtractionOverRisks) {
  // Without the "- Σ rg_j(s')" subtraction (Eq. 1) consumed incentives are
  // double counted; the planner keeps growing regret after taking risks.
  // On Example 4.2's trap the ablated planner must not do better, and the
  // full algorithm stays optimal.
  const int n = 30;
  const Scenario sc = MakeNormalizeTrap(n, 0.01);
  ManagedRiskOptions ablated;
  ablated.subtract_consumed_regret = false;
  auto rig_a = MakeRig(sc);
  ManagedRiskPlanner planner_a(rig_a.ctx, ablated);
  const double ablated_cost = RunSequence(&planner_a, sc);

  auto rig_f = MakeRig(sc);
  ManagedRiskPlanner planner_f(rig_f.ctx);
  const double full_cost = RunSequence(&planner_f, sc);
  EXPECT_LE(full_cost, ablated_cost + 1e-9);
}

}  // namespace
}  // namespace dsm
