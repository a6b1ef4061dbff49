// Property tests over the global plan under random add/remove churn:
// cost and load accounting stay exact, views are dropped exactly when the
// last referencing sharing leaves, and GPC >= the sharing's LPC.

#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "globalplan/global_plan.h"
#include "testing/dry_run.h"
#include "testing/plans.h"
#include "workload/adversarial.h"

namespace dsm {
namespace {

class GlobalPlanPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GlobalPlanPropertyTest, ChurnKeepsAccountingExact) {
  const Scenario sc = MakeRandomThreeWay(GetParam(), 20, 12);
  PlanEnumerator enumerator(sc.catalog.get(), sc.cluster.get(),
                            sc.graph.get(), sc.model.get(), {});
  GlobalPlan gp(sc.cluster.get(), sc.model.get());

  Rng rng(GetParam() ^ 0x1234);
  std::map<SharingId, bool> active;
  SharingId next_id = 1;

  for (int step = 0; step < 120; ++step) {
    const bool remove = !active.empty() && rng.Bernoulli(0.4);
    if (remove) {
      auto it = active.begin();
      std::advance(it, rng.UniformInt(
                           0, static_cast<int64_t>(active.size()) - 1));
      ASSERT_TRUE(gp.RemoveSharing(it->first).ok());
      active.erase(it);
    } else {
      const Sharing& sharing = sc.sharings[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(sc.sharings.size()) - 1))];
      const auto plans = testing_support::EnumerateAll(enumerator, sharing);
      ASSERT_TRUE(plans.ok());
      const SharingPlan& plan = (*plans)[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(plans->size()) - 1))];
      const testing_support::PlanEvaluation probe =
          testing_support::DryRun(gp, plan, sc.model.get());
      const double before = gp.TotalCost();
      const auto added = gp.AddSharing(next_id, sharing, plan);
      ASSERT_TRUE(added.ok());
      // The dry run predicted the mutation exactly.
      EXPECT_NEAR(probe.marginal_cost, (*added)->marginal_cost, 1e-9);
      EXPECT_NEAR(gp.TotalCost(), before + (*added)->marginal_cost, 1e-6);
      active[next_id] = true;
      ++next_id;
    }
    EXPECT_EQ(gp.num_sharings(), active.size());
    EXPECT_GE(gp.TotalCost(), -1e-9);
  }

  // Draining everything returns the plan to an empty, zero-cost state.
  for (const auto& [id, alive] : active) {
    ASSERT_TRUE(gp.RemoveSharing(id).ok());
  }
  EXPECT_NEAR(gp.TotalCost(), 0.0, 1e-9);
  EXPECT_EQ(gp.num_alive_views(), 0u);
  EXPECT_NEAR(gp.ServerLoad(0), 0.0, 1e-9);
}

TEST_P(GlobalPlanPropertyTest, GpcAtLeastLpc) {
  const Scenario sc = MakeRandomThreeWay(GetParam() ^ 0x9e37, 12, 12);
  PlanEnumerator enumerator(sc.catalog.get(), sc.cluster.get(),
                            sc.graph.get(), sc.model.get(), {});
  GlobalPlan gp(sc.cluster.get(), sc.model.get());
  // LPCs computed standalone.
  std::vector<double> lpcs;
  for (const Sharing& sharing : sc.sharings) {
    const auto plans = testing_support::EnumerateAll(enumerator, sharing);
    ASSERT_TRUE(plans.ok());
    double lpc = std::numeric_limits<double>::infinity();
    for (const SharingPlan& p : *plans) {
      lpc = std::min(lpc, PlanCost(p, sc.model.get()));
    }
    lpcs.push_back(lpc);
  }
  Rng rng(GetParam());
  for (size_t i = 0; i < sc.sharings.size(); ++i) {
    const auto plans =
        testing_support::EnumerateAll(enumerator, sc.sharings[i]);
    ASSERT_TRUE(plans.ok());
    const SharingPlan& plan = (*plans)[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(plans->size()) - 1))];
    ASSERT_TRUE(gp.AddSharing(i + 1, sc.sharings[i], plan).ok());
    EXPECT_GE(gp.GPC(i + 1) + 1e-9, lpcs[i])
        << "GPC must dominate LPC (criterion (2) feasibility)";
  }
  // Total cost never exceeds the sum of GPCs (shared nodes counted once).
  double gpc_sum = 0.0;
  for (size_t i = 0; i < sc.sharings.size(); ++i) gpc_sum += gp.GPC(i + 1);
  EXPECT_LE(gp.TotalCost(), gpc_sum + 1e-6);
}

TEST_P(GlobalPlanPropertyTest, ReuseStatsConsistent) {
  const Scenario sc = MakeRandomThreeWay(GetParam() ^ 0x5bd1, 15, 10);
  PlanEnumerator enumerator(sc.catalog.get(), sc.cluster.get(),
                            sc.graph.get(), sc.model.get(), {});
  GlobalPlan gp(sc.cluster.get(), sc.model.get());
  for (size_t i = 0; i < sc.sharings.size(); ++i) {
    const auto plans =
        testing_support::EnumerateAll(enumerator, sc.sharings[i]);
    ASSERT_TRUE(plans.ok());
    ASSERT_TRUE(gp.AddSharing(i + 1, sc.sharings[i], plans->front()).ok());
  }
  for (const GlobalPlan::ReuseStat& st : gp.ComputeReuseStats()) {
    EXPECT_GE(st.num, 1);
    EXPECT_GE(st.saving, 0.0);
    EXPECT_LE(st.num, static_cast<int>(sc.sharings.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GlobalPlanPropertyTest,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256));

}  // namespace
}  // namespace dsm
