// Itemized cost breakdowns (cpu / network / storage).

#include <gtest/gtest.h>

#include "cost/default_cost_model.h"
#include "cost/table_cost_model.h"
#include "plan/enumerator.h"
#include "testing/plans.h"

namespace dsm {
namespace {

TableSet TS(std::initializer_list<TableId> ids) {
  TableSet s;
  for (const TableId id : ids) s.Add(id);
  return s;
}

class BreakdownTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableDef r;
    r.name = "R";
    ColumnDef uid;
    uid.name = "uid";
    uid.distinct_values = 1000;
    uid.max_value = 1000;
    r.columns = {uid};
    r.stats.cardinality = 1000;
    r.stats.update_rate = 10;
    r.stats.tuple_bytes = 100;
    r_ = *catalog_.AddTable(r);
    TableDef s = r;
    s.name = "S";
    s_ = *catalog_.AddTable(s);
    cluster_.AddServer("s0");
    cluster_.AddServer("s1");
    ASSERT_TRUE(cluster_.PlaceTable(r_, 0).ok());
    ASSERT_TRUE(cluster_.PlaceTable(s_, 1).ok());
  }

  Catalog catalog_;
  Cluster cluster_;
  TableId r_ = 0, s_ = 0;
};

TEST_F(BreakdownTest, DetailSumsToScalarCost) {
  DefaultCostModel model(&catalog_, &cluster_);
  const ViewKey out(TS({r_, s_}));
  const ViewKey l(TS({r_}));
  const ViewKey r(TS({s_}));
  const CostBreakdown detail = model.JoinCostDetail(out, 0, l, 0, r, 1);
  EXPECT_NEAR(detail.total(), model.JoinCost(out, 0, l, 0, r, 1), 1e-12);
  EXPECT_GT(detail.cpu, 0.0);
  EXPECT_GT(detail.network, 0.0);  // s is remote
  EXPECT_GT(detail.storage, 0.0);
}

TEST_F(BreakdownTest, LocalJoinHasNoNetworkTerm) {
  DefaultCostModel model(&catalog_, &cluster_);
  const ViewKey out(TS({r_, s_}));
  const CostBreakdown detail =
      model.JoinCostDetail(out, 0, ViewKey(TS({r_})), 0, ViewKey(TS({s_})),
                           0);
  EXPECT_DOUBLE_EQ(detail.network, 0.0);
}

TEST_F(BreakdownTest, FilterCopyDetailMatches) {
  DefaultCostModel model(&catalog_, &cluster_);
  const ViewKey key(TS({r_, s_}));
  const CostBreakdown detail = model.FilterCopyCostDetail(key, 0, key, 1);
  EXPECT_NEAR(detail.total(), model.FilterCopyCost(key, 0, key, 1), 1e-12);
  EXPECT_GT(detail.network, 0.0);
}

TEST_F(BreakdownTest, PlanBreakdownSumsNodes) {
  DefaultCostModel model(&catalog_, &cluster_);
  const JoinGraph graph = JoinGraph::FromCatalog(catalog_);
  PlanEnumerator enumerator(&catalog_, &cluster_, &graph, &model, {});
  const auto plans =
      testing_support::EnumerateAll(enumerator, Sharing(TS({r_, s_}), {}, 0));
  ASSERT_TRUE(plans.ok());
  for (const SharingPlan& plan : *plans) {
    const CostBreakdown detail = PlanCostBreakdown(plan, &model);
    EXPECT_NEAR(detail.total(), PlanCost(plan, &model), 1e-9);
  }
}

TEST(BreakdownDefaultTest, BaseImplementationAttributesToCpu) {
  // Models that don't override the detail hooks report everything as cpu.
  TableDrivenCostModel model;
  model.SetJoinCost(TS({0}), TS({1}), 42.0);
  const CostBreakdown detail = model.JoinCostDetail(
      ViewKey(TS({0, 1})), 0, ViewKey(TS({0})), 0, ViewKey(TS({1})), 0);
  EXPECT_DOUBLE_EQ(detail.cpu, 42.0);
  EXPECT_DOUBLE_EQ(detail.network, 0.0);
  EXPECT_DOUBLE_EQ(detail.storage, 0.0);
}

TEST(BreakdownAlgebraTest, PlusEquals) {
  CostBreakdown a{1, 2, 3};
  const CostBreakdown b{10, 20, 30};
  a += b;
  EXPECT_DOUBLE_EQ(a.cpu, 11);
  EXPECT_DOUBLE_EQ(a.network, 22);
  EXPECT_DOUBLE_EQ(a.storage, 33);
  EXPECT_DOUBLE_EQ(a.total(), 66);
}

}  // namespace
}  // namespace dsm
