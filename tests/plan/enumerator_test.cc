#include "plan/enumerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cost/table_cost_model.h"

namespace dsm {
namespace {

TableSet TS(std::initializer_list<TableId> ids) {
  TableSet s;
  for (const TableId id : ids) s.Add(id);
  return s;
}

TableDef SimpleTable(const std::string& name, const std::string& key) {
  TableDef def;
  def.name = name;
  ColumnDef col;
  col.name = key;
  col.distinct_values = 100;
  col.min_value = 0;
  col.max_value = 100;
  def.columns = {col};
  def.stats.cardinality = 100;
  def.stats.update_rate = 1;
  return def;
}

class EnumeratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Path graph a - b - c on one server.
    a_ = *catalog_.AddTable(SimpleTable("a", "k1"));
    b_ = *catalog_.AddTable(SimpleTable("b", "k1"));
    c_ = *catalog_.AddTable(SimpleTable("c", "k2"));
    // b also has k2 so b-c joinable; rebuild b with both columns.
    catalog_.mutable_table(b_).columns.push_back(
        SimpleTable("x", "k2").columns[0]);
    cluster_.AddServer("s0");
    cluster_.PlaceRoundRobin(catalog_.num_tables());
    graph_ = std::make_unique<JoinGraph>(JoinGraph::FromCatalog(catalog_));
  }

  PlanEnumerator MakeEnumerator(EnumeratorOptions options = {}) {
    return PlanEnumerator(&catalog_, &cluster_, graph_.get(), &model_,
                          options);
  }

  Catalog catalog_;
  Cluster cluster_;
  std::unique_ptr<JoinGraph> graph_;
  TableDrivenCostModel model_;
  TableId a_ = 0, b_ = 0, c_ = 0;
};

TEST_F(EnumeratorTest, PathGraphHasTwoJoinOrders) {
  // (a,b,c) over a-b-c admits exactly (ab)c and a(bc); (ac)b is not
  // connected. Single server, no predicates -> exactly 2 plans.
  const PlanEnumerator e = MakeEnumerator();
  const auto plans = e.Enumerate(Sharing(TS({a_, b_, c_}), {}, 0));
  ASSERT_TRUE(plans.ok());
  EXPECT_EQ(plans->size(), 2u);
  for (const SharingPlan& p : *plans) {
    EXPECT_EQ(p.root().key.tables, TS({a_, b_, c_}));
    EXPECT_EQ(p.root().server, 0u);
  }
}

TEST_F(EnumeratorTest, TwoTableSharingHasOnePlan) {
  const PlanEnumerator e = MakeEnumerator();
  const auto plans = e.Enumerate(Sharing(TS({a_, b_}), {}, 0));
  ASSERT_TRUE(plans.ok());
  EXPECT_EQ(plans->size(), 1u);
  EXPECT_EQ((*plans)[0].nodes.size(), 3u);  // two leaves + join
}

TEST_F(EnumeratorTest, SingleTableSharing) {
  const PlanEnumerator e = MakeEnumerator();
  const auto plans = e.Enumerate(Sharing(TS({a_}), {}, 0));
  ASSERT_TRUE(plans.ok());
  ASSERT_EQ(plans->size(), 1u);
  // Leaf only: already at the destination with no predicates.
  EXPECT_EQ((*plans)[0].nodes.size(), 1u);
}

TEST_F(EnumeratorTest, DisconnectedSharingRejected) {
  const PlanEnumerator e = MakeEnumerator();
  const auto plans = e.Enumerate(Sharing(TS({a_, c_}), {}, 0));
  EXPECT_EQ(plans.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EnumeratorTest, PredicatePlacementDoublesPlans) {
  Predicate p;
  p.table = a_;
  p.column = 0;
  p.op = CompareOp::kLt;
  p.value = 50;
  const PlanEnumerator e = MakeEnumerator();
  const auto plans = e.Enumerate(Sharing(TS({a_, b_}), {p}, 0));
  ASSERT_TRUE(plans.ok());
  // Pushdown to the leaf vs applied at the root.
  EXPECT_EQ(plans->size(), 2u);
}

TEST_F(EnumeratorTest, PredicatePlacementDisabled) {
  Predicate p;
  p.table = a_;
  p.column = 0;
  p.op = CompareOp::kLt;
  p.value = 50;
  EnumeratorOptions options;
  options.predicate_placement = false;
  const PlanEnumerator e = MakeEnumerator(options);
  const auto plans = e.Enumerate(Sharing(TS({a_, b_}), {p}, 0));
  ASSERT_TRUE(plans.ok());
  EXPECT_EQ(plans->size(), 1u);
}

TEST_F(EnumeratorTest, AllPlansDeliverResultKeyAtDestination) {
  Predicate p;
  p.table = b_;
  p.column = 0;
  p.op = CompareOp::kGt;
  p.value = 10;
  const Sharing sharing(TS({a_, b_, c_}), {p}, 0);
  const PlanEnumerator e = MakeEnumerator();
  const auto plans = e.Enumerate(sharing);
  ASSERT_TRUE(plans.ok());
  ASSERT_FALSE(plans->empty());
  for (const SharingPlan& plan : *plans) {
    EXPECT_EQ(plan.root().key, sharing.ResultKey());
    EXPECT_EQ(plan.root().server, sharing.destination());
  }
}

TEST_F(EnumeratorTest, MaxPlansCap) {
  Predicate p;
  p.table = a_;
  p.column = 0;
  p.op = CompareOp::kLt;
  p.value = 50;
  EnumeratorOptions options;
  options.max_plans = 1;
  const PlanEnumerator e = MakeEnumerator(options);
  const auto plans = e.Enumerate(Sharing(TS({a_, b_, c_}), {p}, 0));
  ASSERT_TRUE(plans.ok());
  EXPECT_EQ(plans->size(), 1u);
}

TEST_F(EnumeratorTest, BeamRequiresCostModel) {
  EnumeratorOptions options;
  options.per_subset_cap = 1;
  PlanEnumerator e(&catalog_, &cluster_, graph_.get(), nullptr, options);
  const auto plans = e.Enumerate(Sharing(TS({a_, b_}), {}, 0));
  EXPECT_EQ(plans.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EnumeratorTest, BeamKeepsCheapestPlan) {
  // Make a(bc) far cheaper than (ab)c and beam to one fragment per subset.
  model_.SetJoinCost(TS({a_}), TS({b_}), 1000.0);
  model_.SetJoinCost(TS({a_, b_}), TS({c_}), 1000.0);
  model_.SetJoinCost(TS({b_}), TS({c_}), 1.0);
  model_.SetJoinCost(TS({a_}), TS({b_, c_}), 1.0);
  EnumeratorOptions options;
  options.per_subset_cap = 1;
  const PlanEnumerator e = MakeEnumerator(options);
  const auto plans = e.Enumerate(Sharing(TS({a_, b_, c_}), {}, 0));
  ASSERT_TRUE(plans.ok());
  ASSERT_EQ(plans->size(), 1u);
  EXPECT_NEAR(PlanCost((*plans)[0], &model_), 2.0, 1e-9);
}

TEST_F(EnumeratorTest, EmptySharingRejected) {
  const PlanEnumerator e = MakeEnumerator();
  EXPECT_EQ(e.Enumerate(Sharing(TableSet(), {}, 0)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(EnumeratorTest, ManyPredicatesKeepFullPushdownMask) {
  // With > 12 predicates the enumerator falls back to the two extreme
  // placements. The all-pushed-down choice must cover *every* predicate —
  // a narrow mask would silently leave predicates 13+ at the root.
  std::vector<Predicate> preds;
  for (int i = 0; i < 14; ++i) {
    Predicate p;
    p.table = a_;
    p.column = 0;
    p.op = CompareOp::kLt;
    p.value = 99 - i;
    preds.push_back(p);
  }
  const PlanEnumerator e = MakeEnumerator();
  const auto plans = e.Enumerate(Sharing(TS({a_, b_}), preds, 0));
  ASSERT_TRUE(plans.ok());
  size_t max_leaf_preds = 0;
  for (const SharingPlan& plan : *plans) {
    for (const PlanNode& n : plan.nodes) {
      if (n.type == PlanNodeType::kLeaf && n.base_table == a_) {
        max_leaf_preds = std::max(max_leaf_preds, n.key.predicates.size());
      }
    }
  }
  EXPECT_EQ(max_leaf_preds, preds.size());
}

TEST(EnumeratorMultiServerTest, ServerPlacementsEnumerated) {
  // Two tables on different servers, destination on a third: the join can
  // run at either home or the destination -> 3 plans.
  Catalog catalog;
  TableDef a = SimpleTable("a", "k");
  TableDef b = SimpleTable("b", "k");
  Cluster cluster;
  cluster.AddServer("s0");
  cluster.AddServer("s1");
  cluster.AddServer("s2");
  const TableId ta = *catalog.AddTable(a);
  const TableId tb = *catalog.AddTable(b);
  ASSERT_TRUE(cluster.PlaceTable(ta, 0).ok());
  ASSERT_TRUE(cluster.PlaceTable(tb, 1).ok());
  const JoinGraph graph = JoinGraph::FromCatalog(catalog);
  TableDrivenCostModel model;
  PlanEnumerator e(&catalog, &cluster, &graph, &model, {});
  const auto plans = e.Enumerate(Sharing(TS({ta, tb}), {}, 2));
  ASSERT_TRUE(plans.ok());
  EXPECT_EQ(plans->size(), 3u);
  // Every plan ends at the destination server.
  for (const SharingPlan& p : *plans) {
    EXPECT_EQ(p.root().server, 2u);
  }
}

}  // namespace
}  // namespace dsm
