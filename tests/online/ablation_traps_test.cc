// Quantitative tests for Eq. (1)'s two correction terms on the dedicated
// trap scenario (MakeEquationOneTrap): disabling either reintroduces the
// over-risking behaviour Section 4.4 warns about.

#include <gtest/gtest.h>

#include "market/rig.h"
#include "online/managed_risk.h"
#include "workload/adversarial.h"

namespace dsm {
namespace {

double RunWith(const Scenario& scenario, const ManagedRiskOptions& options) {
  auto rig = MakeRig(scenario);
  ManagedRiskPlanner planner(rig.ctx, options);
  return RunSequence(&planner, scenario);
}

TEST(EquationOneTrap, FullManagedRiskTimesTheRiskWell) {
  // With both terms active: eight cheap sharings (3 each), the bc/abc risk
  // at the ninth (26), reuse afterwards (1), and the tail declined (3).
  const Scenario sc = MakeEquationOneTrap(10, /*include_tail=*/true);
  const double cost = RunWith(sc, ManagedRiskOptions{});
  EXPECT_NEAR(cost, 8 * 3.0 + 26.0 + 1.0 + 3.0, 0.5);
}

TEST(EquationOneTrap, NoSubtractionTakesTheUnrewardedTailRisk) {
  // Without the consumed-regret subtraction, the risk-taking sharing's
  // full 26-dollar cost inflates ab's pending regret, and the tail sharing
  // computes ab (35.1) although nothing ever reuses it.
  const Scenario sc = MakeEquationOneTrap(10, /*include_tail=*/true);
  ManagedRiskOptions ablated;
  ablated.subtract_consumed_regret = false;
  const double ablated_cost = RunWith(sc, ablated);
  const double full_cost = RunWith(sc, ManagedRiskOptions{});
  EXPECT_GT(ablated_cost, full_cost + 20.0);
  // The ab view exists only in the ablated run.
  auto rig_full = MakeRig(sc);
  ManagedRiskPlanner full(rig_full.ctx);
  (void)RunSequence(&full, sc);
  TableSet ab;
  ab.Add(0);
  ab.Add(1);
  EXPECT_FALSE(rig_full.global_plan->HasUnpredicatedView(ab));

  auto rig_ablated = MakeRig(sc);
  ManagedRiskPlanner ablated_planner(rig_ablated.ctx, ablated);
  (void)RunSequence(&ablated_planner, sc);
  EXPECT_TRUE(rig_ablated.global_plan->HasUnpredicatedView(ab));
}

TEST(EquationOneTrap, NoDivisionRisksTooEarly) {
  // Short sequence (7 sharings, no tail): the full algorithm never finds
  // the bc/abc risk worthwhile (cost 21); without the 1/(m-1) damping the
  // doubled incentive triggers the 26-dollar risk around the fifth sharing.
  const Scenario sc = MakeEquationOneTrap(7, /*include_tail=*/false);
  const double full_cost = RunWith(sc, ManagedRiskOptions{});
  EXPECT_NEAR(full_cost, 7 * 3.0, 0.5);

  ManagedRiskOptions ablated;
  ablated.divide_by_joins = false;
  const double ablated_cost = RunWith(sc, ablated);
  EXPECT_GT(ablated_cost, full_cost + 10.0);
}

TEST(EquationOneTrap, LongSequencesRewardTheRisk) {
  // Sanity: on long sequences the risk pays off and full MANAGEDRISK ends
  // up cheaper per sharing than an algorithm that never risks (GREEDY).
  const Scenario sc = MakeEquationOneTrap(40, /*include_tail=*/false);
  const double mr = RunWith(sc, ManagedRiskOptions{});
  // GREEDY pays the 3-dollar plan forever: 120 total. MR pays 26 once and
  // ~1 afterwards.
  EXPECT_LT(mr, 40 * 3.0);
}

}  // namespace
}  // namespace dsm
