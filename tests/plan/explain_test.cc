#include "market/rig.h"
#include "plan/explain.h"

#include <gtest/gtest.h>

#include "cost/table_cost_model.h"
#include "plan/enumerator.h"
#include "testing/plans.h"
#include "workload/adversarial.h"

namespace dsm {
namespace {

TEST(ExplainTest, PlanTreeContainsEveryOperator) {
  const Scenario sc = MakeGreedyTrap(1);
  auto rig = MakeRig(sc);
  const auto plans =
      testing_support::EnumerateAll(*rig.enumerator, sc.sharings[0]);
  ASSERT_TRUE(plans.ok());
  const std::string text =
      ExplainPlan(plans->front(), *sc.catalog, sc.model.get());
  EXPECT_NE(text.find("Join"), std::string::npos);
  EXPECT_NE(text.find("Leaf a"), std::string::npos);
  EXPECT_NE(text.find("Leaf b"), std::string::npos);
  EXPECT_NE(text.find("@s0"), std::string::npos);
  EXPECT_NE(text.find('$'), std::string::npos);
}

TEST(ExplainTest, EmptyPlan) {
  SharingPlan plan;
  Catalog catalog;
  TableDrivenCostModel model;
  EXPECT_EQ(ExplainPlan(plan, catalog, &model), "<empty plan>\n");
}

TEST(ExplainTest, SharingShowsReuseDecisions) {
  const Scenario sc = MakeGreedyTrap(2, 5.0, 100.0, 0.5);
  auto rig = MakeRig(sc);
  // Both sharings use the (ab)c_x plan; the second reuses ab.
  for (size_t i = 0; i < 2; ++i) {
    const auto plans =
        testing_support::EnumerateAll(*rig.enumerator, sc.sharings[i]);
    ASSERT_TRUE(plans.ok());
    const SharingPlan* with_ab = nullptr;
    for (const SharingPlan& p : *plans) {
      for (const PlanNode& n : p.nodes) {
        TableSet ab;
        ab.Add(0);
        ab.Add(1);
        if (n.is_join() && n.key.tables == ab) with_ab = &p;
      }
    }
    ASSERT_NE(with_ab, nullptr);
    ASSERT_TRUE(
        rig.global_plan->AddSharing(i + 1, sc.sharings[i], *with_ab).ok());
  }
  const std::string text = ExplainSharing(*rig.global_plan, 2, *sc.catalog);
  EXPECT_NE(text.find("reused"), std::string::npos);
  EXPECT_NE(text.find("fresh"), std::string::npos);
  EXPECT_NE(text.find("sharing 2"), std::string::npos);
}

TEST(ExplainTest, UnknownSharing) {
  const Scenario sc = MakeGreedyTrap(1);
  auto rig = MakeRig(sc);
  EXPECT_EQ(ExplainSharing(*rig.global_plan, 42, *sc.catalog),
            "<unknown sharing>\n");
}

TEST(ExplainTest, GlobalPlanSummary) {
  const Scenario sc = MakeGreedyTrap(2);
  auto rig = MakeRig(sc);
  const auto plans =
      testing_support::EnumerateAll(*rig.enumerator, sc.sharings[0]);
  ASSERT_TRUE(plans.ok());
  ASSERT_TRUE(
      rig.global_plan->AddSharing(1, sc.sharings[0], plans->front()).ok());
  const std::string text =
      ExplainGlobalPlan(*rig.global_plan, *sc.cluster, *sc.catalog);
  EXPECT_NE(text.find("1 sharings"), std::string::npos);
  EXPECT_NE(text.find("server 0"), std::string::npos);
  EXPECT_NE(text.find("load"), std::string::npos);
}

}  // namespace
}  // namespace dsm
