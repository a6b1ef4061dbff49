#include "globalplan/global_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "cost/table_cost_model.h"
#include "plan/enumerator.h"
#include "testing/plans.h"
#include "testing/dry_run.h"

namespace dsm {
namespace {

using testing_support::DryRun;

TableSet TS(std::initializer_list<TableId> ids) {
  TableSet s;
  for (const TableId id : ids) s.Add(id);
  return s;
}

Predicate P(TableId t, double v) {
  Predicate p;
  p.table = t;
  p.column = 0;
  p.op = CompareOp::kLt;
  p.value = v;
  return p;
}

// Fixture: path graph a - b - c, one server, hand-set costs
// c[ab] = 4, c[(ab)c] = 10, c[bc] = 8, c[a(bc)] = 6.
class GlobalPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto add = [this](const char* name,
                      std::initializer_list<const char*> cols) {
      TableDef def;
      def.name = name;
      for (const char* c : cols) {
        ColumnDef col;
        col.name = c;
        col.distinct_values = 100;
        col.max_value = 100;
        def.columns.push_back(col);
      }
      def.stats.cardinality = 100;
      def.stats.update_rate = 1;
      return *catalog_.AddTable(def);
    };
    a_ = add("a", {"k1"});
    b_ = add("b", {"k1", "k2"});
    c_ = add("c", {"k2"});
    cluster_.AddServer("s0");
    cluster_.PlaceRoundRobin(catalog_.num_tables());
    graph_ = std::make_unique<JoinGraph>(JoinGraph::FromCatalog(catalog_));

    model_.SetJoinCost(TS({a_}), TS({b_}), 4.0);
    model_.SetJoinCost(TS({a_, b_}), TS({c_}), 10.0);
    model_.SetJoinCost(TS({b_}), TS({c_}), 8.0);
    model_.SetJoinCost(TS({a_}), TS({b_, c_}), 6.0);

    enumerator_ = std::make_unique<PlanEnumerator>(
        &catalog_, &cluster_, graph_.get(), &model_, EnumeratorOptions{});
    gp_ = std::make_unique<GlobalPlan>(&cluster_, &model_);
  }

  // The cheapest enumerated plan whose join order matches `want_ab_first`.
  SharingPlan PlanFor(const Sharing& sharing, bool want_ab_first) {
    const auto plans = testing_support::EnumerateAll(*enumerator_, sharing);
    EXPECT_TRUE(plans.ok());
    for (const SharingPlan& plan : *plans) {
      for (const PlanNode& node : plan.nodes) {
        if (node.is_join() && node.key.tables == TS({a_, b_}) &&
            want_ab_first) {
          return plan;
        }
        if (node.is_join() && node.key.tables == TS({b_, c_}) &&
            !want_ab_first) {
          return plan;
        }
      }
    }
    return plans->front();
  }

  Catalog catalog_;
  Cluster cluster_;
  std::unique_ptr<JoinGraph> graph_;
  TableDrivenCostModel model_;
  std::unique_ptr<PlanEnumerator> enumerator_;
  std::unique_ptr<GlobalPlan> gp_;
  TableId a_ = 0, b_ = 0, c_ = 0;
};

TEST_F(GlobalPlanTest, FreshPlanCostsItsStandaloneCost) {
  const Sharing s(TS({a_, b_, c_}), {}, 0);
  const SharingPlan plan = PlanFor(s, /*want_ab_first=*/true);
  const auto added = gp_->AddSharing(1, s, plan);
  ASSERT_TRUE(added.ok());
  EXPECT_NEAR((*added)->marginal_cost, 14.0, 1e-9);  // 4 + 10
  EXPECT_NEAR(gp_->TotalCost(), 14.0, 1e-9);
  EXPECT_NEAR(gp_->GPC(1), 14.0, 1e-9);
}

TEST_F(GlobalPlanTest, EvaluateDoesNotMutate) {
  const Sharing s(TS({a_, b_}), {}, 0);
  const SharingPlan plan = PlanFor(s, true);
  const auto eval = DryRun(*gp_, plan, &model_);
  EXPECT_NEAR(eval.marginal_cost, 4.0, 1e-9);
  EXPECT_DOUBLE_EQ(gp_->TotalCost(), 0.0);
  EXPECT_EQ(gp_->num_alive_views(), 0u);
}

TEST_F(GlobalPlanTest, IdenticalPlanFullyReused) {
  const Sharing s(TS({a_, b_, c_}), {}, 0);
  const SharingPlan plan = PlanFor(s, true);
  ASSERT_TRUE(gp_->AddSharing(1, s, plan).ok());
  const auto added2 = gp_->AddSharing(2, s, plan);
  ASSERT_TRUE(added2.ok());
  EXPECT_NEAR((*added2)->marginal_cost, 0.0, 1e-9);
  EXPECT_NEAR(gp_->TotalCost(), 14.0, 1e-9);
  // GPC still reflects the sharing's own plan edges.
  EXPECT_NEAR(gp_->GPC(2), 14.0, 1e-9);
}

TEST_F(GlobalPlanTest, SubexpressionReusedAcrossSharings) {
  // S1 = (a,b); S2 = (a,b,c) via (ab)c reuses ab.
  const Sharing s1(TS({a_, b_}), {}, 0);
  ASSERT_TRUE(gp_->AddSharing(1, s1, PlanFor(s1, true)).ok());
  EXPECT_NEAR(gp_->TotalCost(), 4.0, 1e-9);

  const Sharing s2(TS({a_, b_, c_}), {}, 0);
  const auto added = gp_->AddSharing(2, s2, PlanFor(s2, true));
  ASSERT_TRUE(added.ok());
  EXPECT_NEAR((*added)->marginal_cost, 10.0, 1e-9);  // only (ab)c
  EXPECT_NEAR(gp_->TotalCost(), 14.0, 1e-9);
}

TEST_F(GlobalPlanTest, ReuseDetectedAcrossJoinOrders) {
  // S1 materializes abc via (ab)c; S2's a(bc) plan finds abc by key.
  const Sharing s1(TS({a_, b_, c_}), {}, 0);
  ASSERT_TRUE(gp_->AddSharing(1, s1, PlanFor(s1, true)).ok());
  const Sharing s2(TS({a_, b_, c_}), {}, 0);
  const auto eval = DryRun(*gp_, PlanFor(s2, false), &model_);
  EXPECT_NEAR(eval.marginal_cost, 0.0, 1e-9);
}

TEST_F(GlobalPlanTest, SubsumptionAddsResidualFilter) {
  const Sharing full(TS({a_, b_}), {}, 0);
  ASSERT_TRUE(gp_->AddSharing(1, full, PlanFor(full, true)).ok());

  const Sharing filtered(TS({a_, b_}), {P(a_, 50)}, 0);
  const auto plans = testing_support::EnumerateAll(*enumerator_, filtered);
  ASSERT_TRUE(plans.ok());
  // Pick the plan that applies the predicate at the root (pure filter on
  // top of ab, as in Example 1.1).
  const SharingPlan* root_filter = nullptr;
  for (const SharingPlan& plan : *plans) {
    if (plan.root().type == PlanNodeType::kFilterCopy &&
        plan.nodes[static_cast<size_t>(plan.root().left)]
            .key.predicates.empty()) {
      root_filter = &plan;
    }
  }
  ASSERT_NE(root_filter, nullptr);
  const auto added = gp_->AddSharing(2, filtered, *root_filter);
  ASSERT_TRUE(added.ok());
  // TableDrivenCostModel: same-server filter costs 0, and ab is reused.
  EXPECT_NEAR((*added)->marginal_cost, 0.0, 1e-9);
  EXPECT_NEAR(gp_->TotalCost(), 4.0, 1e-9);
}

TEST_F(GlobalPlanTest, RemoveSharingDropsOrphans) {
  const Sharing s1(TS({a_, b_}), {}, 0);
  const Sharing s2(TS({a_, b_, c_}), {}, 0);
  ASSERT_TRUE(gp_->AddSharing(1, s1, PlanFor(s1, true)).ok());
  ASSERT_TRUE(gp_->AddSharing(2, s2, PlanFor(s2, true)).ok());
  EXPECT_NEAR(gp_->TotalCost(), 14.0, 1e-9);

  // Removing s2 drops (ab)c but keeps ab (still used by s1).
  ASSERT_TRUE(gp_->RemoveSharing(2).ok());
  EXPECT_NEAR(gp_->TotalCost(), 4.0, 1e-9);
  EXPECT_TRUE(gp_->HasUnpredicatedView(TS({a_, b_})));
  EXPECT_FALSE(gp_->HasUnpredicatedView(TS({a_, b_, c_})));

  ASSERT_TRUE(gp_->RemoveSharing(1).ok());
  EXPECT_NEAR(gp_->TotalCost(), 0.0, 1e-9);
  EXPECT_EQ(gp_->num_alive_views(), 0u);
}

TEST_F(GlobalPlanTest, HasUnpredicatedViewIgnoresPredicatedViews) {
  // A pushdown plan for a filtered ab: every node over {a, b} carries the
  // predicate, so the bucket of {a, b} holds only predicated views.
  const Sharing filtered(TS({a_, b_}), {P(a_, 50)}, 0);
  const auto plans = testing_support::EnumerateAll(*enumerator_, filtered);
  ASSERT_TRUE(plans.ok());
  const auto pushdown = std::find_if(
      plans->begin(), plans->end(), [this](const SharingPlan& plan) {
        return std::none_of(
            plan.nodes.begin(), plan.nodes.end(), [this](const PlanNode& n) {
              return n.key.tables == TS({a_, b_}) && n.key.predicates.empty();
            });
      });
  ASSERT_NE(pushdown, plans->end());
  ASSERT_TRUE(gp_->AddSharing(1, filtered, *pushdown).ok());
  EXPECT_FALSE(gp_->HasUnpredicatedView(TS({a_, b_})));

  const Sharing full(TS({a_, b_}), {}, 0);
  ASSERT_TRUE(gp_->AddSharing(2, full, PlanFor(full, true)).ok());
  EXPECT_TRUE(gp_->HasUnpredicatedView(TS({a_, b_})));

  // The predicated views stay alive; only the unpredicated one goes.
  ASSERT_TRUE(gp_->RemoveSharing(2).ok());
  EXPECT_GT(gp_->num_alive_views(), 0u);
  EXPECT_FALSE(gp_->HasUnpredicatedView(TS({a_, b_})));
}

TEST_F(GlobalPlanTest, SharedNodeSurvivesProducerRemoval) {
  const Sharing s1(TS({a_, b_}), {}, 0);
  const Sharing s2(TS({a_, b_, c_}), {}, 0);
  ASSERT_TRUE(gp_->AddSharing(1, s1, PlanFor(s1, true)).ok());
  ASSERT_TRUE(gp_->AddSharing(2, s2, PlanFor(s2, true)).ok());
  // Removing the producer of ab keeps ab alive: s2 still needs it.
  ASSERT_TRUE(gp_->RemoveSharing(1).ok());
  EXPECT_NEAR(gp_->TotalCost(), 14.0, 1e-9);
  EXPECT_TRUE(gp_->HasUnpredicatedView(TS({a_, b_})));
}

TEST_F(GlobalPlanTest, ForbidReuseForcesFreshComputation) {
  const Sharing s1(TS({a_, b_}), {}, 0);
  ASSERT_TRUE(gp_->AddSharing(1, s1, PlanFor(s1, true)).ok());

  GlobalPlan::AddOptions options;
  std::unordered_set<ViewKey, ViewKeyHash> forbid = {ViewKey(TS({a_, b_}))};
  options.forbid_reuse_keys = &forbid;
  const auto added = gp_->AddSharing(2, s1, PlanFor(s1, true), options);
  ASSERT_TRUE(added.ok());
  EXPECT_NEAR((*added)->marginal_cost, 4.0, 1e-9);
  EXPECT_NEAR(gp_->TotalCost(), 8.0, 1e-9);
}

TEST_F(GlobalPlanTest, ForbiddingEveryPlanKeyDisablesAllReuse) {
  const Sharing s(TS({a_, b_, c_}), {}, 0);
  ASSERT_TRUE(gp_->AddSharing(1, s, PlanFor(s, true)).ok());
  const SharingPlan plan = PlanFor(s, true);
  std::unordered_set<ViewKey, ViewKeyHash> forbid;
  for (const PlanNode& node : plan.nodes) forbid.insert(node.key);
  GlobalPlan::AddOptions options;
  options.forbid_reuse_keys = &forbid;
  const auto eval = DryRun(*gp_, plan, &model_, options);
  EXPECT_NEAR(eval.marginal_cost, 14.0, 1e-9);
  for (const GlobalPlan::NodeDecision& d : eval.decisions) {
    EXPECT_EQ(d.state, GlobalPlan::NodeDecision::kFresh);
  }
}

TEST_F(GlobalPlanTest, DuplicateIdRejected) {
  const Sharing s(TS({a_, b_}), {}, 0);
  ASSERT_TRUE(gp_->AddSharing(1, s, PlanFor(s, true)).ok());
  EXPECT_EQ(gp_->AddSharing(1, s, PlanFor(s, true)).status().code(),
            StatusCode::kAlreadyExists);
}

// AddSharing commits only a plan that computes its sharing: a tree rooted
// at its last node whose root is the sharing's result on its destination.
TEST_F(GlobalPlanTest, PlanThatDoesNotComputeItsSharingRejected) {
  const Sharing s(TS({a_, b_}), {}, 0);
  const SharingPlan good = PlanFor(s, true);
  PlanNode leaf_a;
  leaf_a.key = ViewKey(TS({a_}));
  leaf_a.base_table = a_;
  PlanNode leaf_b = leaf_a;
  leaf_b.key = ViewKey(TS({b_}));
  leaf_b.base_table = b_;
  PlanNode join;
  join.type = PlanNodeType::kJoin;
  join.key = ViewKey(TS({a_, b_}));

  SharingPlan unjoined;  // two leaves, no join: the root covers {b} only
  unjoined.nodes = {leaf_a, leaf_b};
  SharingPlan self_join;  // both children of the join are node 0
  join.left = 0;
  join.right = 0;
  self_join.nodes = {leaf_a, join};
  SharingPlan orphan;  // node 0 feeds nothing
  join.left = 1;
  join.right = 2;
  orphan.nodes = {leaf_a, leaf_a, leaf_b, join};
  SharingPlan elsewhere = good;  // the result lands off the destination
  elsewhere.nodes.back().server = 1;
  const Sharing bigger(TS({a_, b_, c_}), {}, 0);  // plan of another query

  for (const SharingPlan* bad : {&unjoined, &self_join, &orphan, &elsewhere}) {
    EXPECT_EQ(gp_->AddSharing(1, s, *bad).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(gp_->AddSharing(1, bigger, good).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(gp_->num_sharings(), 0u);
  EXPECT_EQ(gp_->num_alive_views(), 0u);
  EXPECT_TRUE(gp_->AddSharing(1, s, good).ok());
}

TEST_F(GlobalPlanTest, RemoveUnknownIdRejected) {
  EXPECT_EQ(gp_->RemoveSharing(99).code(), StatusCode::kNotFound);
}

TEST_F(GlobalPlanTest, ReuseStatsNumCountsAllContainingPlans) {
  // S1=(a,b) produces ab; S2=(a,b,c) reuses it via (ab)c.
  const Sharing s1(TS({a_, b_}), {}, 0);
  const Sharing s2(TS({a_, b_, c_}), {}, 0);
  ASSERT_TRUE(gp_->AddSharing(1, s1, PlanFor(s1, true)).ok());
  ASSERT_TRUE(gp_->AddSharing(2, s2, PlanFor(s2, true)).ok());

  const auto stats = gp_->ComputeReuseStats();
  const GlobalPlan::ReuseStat* ab = nullptr;
  for (const auto& st : stats) {
    if (st.key == ViewKey(TS({a_, b_}))) ab = &st;
  }
  ASSERT_NE(ab, nullptr);
  EXPECT_EQ(ab->num, 2);
  // S2 avoided computing ab itself: saving = c[ab] = 4.
  EXPECT_NEAR(ab->saving, 4.0, 1e-9);
}

TEST_F(GlobalPlanTest, ClosureAndNodeCostExposed) {
  const Sharing s(TS({a_, b_}), {}, 0);
  ASSERT_TRUE(gp_->AddSharing(1, s, PlanFor(s, true)).ok());
  const std::optional<std::vector<int>> closure = gp_->closure(1);
  ASSERT_TRUE(closure.has_value());
  double total = 0.0;
  for (const int node : *closure) total += gp_->node_cost(node);
  EXPECT_NEAR(total, 4.0, 1e-9);
  EXPECT_FALSE(gp_->closure(42).has_value());
}

TEST_F(GlobalPlanTest, CapacityFeasibility) {
  // Tight capacity: the join processes 2 delta-tuples/unit but the server
  // only allows 1 -> infeasible.
  cluster_.mutable_server(0).capacity_tuples_per_unit = 1.0;
  const Sharing s(TS({a_, b_}), {}, 0);
  const auto eval = DryRun(*gp_, PlanFor(s, true), &model_);
  EXPECT_FALSE(eval.feasible);

  cluster_.mutable_server(0).capacity_tuples_per_unit = 100.0;
  EXPECT_TRUE(DryRun(*gp_, PlanFor(s, true), &model_).feasible);
}

TEST_F(GlobalPlanTest, LoadAccumulatesAndFrees) {
  const Sharing s(TS({a_, b_}), {}, 0);
  ASSERT_TRUE(gp_->AddSharing(1, s, PlanFor(s, true)).ok());
  EXPECT_NEAR(gp_->ServerLoad(0), 2.0, 1e-9);  // join input rate 1+1
  ASSERT_TRUE(gp_->RemoveSharing(1).ok());
  EXPECT_NEAR(gp_->ServerLoad(0), 0.0, 1e-9);
}

}  // namespace
}  // namespace dsm
