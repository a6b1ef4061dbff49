// Containment DAG construction plus the Figure-3 reconstruction: building
// Example 5.1's global plan from real plans and checking saving(r)/num(r)
// (Definition 5.1) and the end-to-end FAIRCOST pipeline on it.

#include "costing/containment_dag.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "cost/table_cost_model.h"
#include "costing/fairness_metrics.h"
#include "costing/lpc.h"
#include "costing/savings.h"
#include "globalplan/global_plan.h"
#include "plan/enumerator.h"
#include "testing/plans.h"
#include "workload/predicate_gen.h"

namespace dsm {
namespace {

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

TEST(ContainmentDagTest, IdenticalGrouping) {
  const Sharing a(TS({0, 1}), {}, 0);
  const Sharing b(TS({0, 1}), {}, 2);  // same query, other destination
  const Sharing c(TS({0, 2}), {}, 0);
  const ContainmentDag dag =
      BuildContainmentDag({a.ResultKey(), b.ResultKey(), c.ResultKey()},
                          {4.0, 4.0, 7.0});
  EXPECT_EQ(dag.identity_group[0], dag.identity_group[1]);
  EXPECT_NE(dag.identity_group[0], dag.identity_group[2]);
}

TEST(ContainmentDagTest, ContainmentArcsRespectLpc) {
  const Sharing filtered(TS({0, 1}), {P(0, 5)}, 0);
  const Sharing full(TS({0, 1}), {}, 0);
  {
    // LPC(filtered) <= LPC(full): arc exists.
    const ContainmentDag dag =
        BuildContainmentDag({filtered.ResultKey(), full.ResultKey()},
                            {3.0, 10.0});
    ASSERT_EQ(dag.containers[0].size(), 1u);
    EXPECT_EQ(dag.containers[0][0], 1);
    EXPECT_TRUE(dag.containers[1].empty());
  }
  {
    // LPC(filtered) > LPC(full): criterion (3) does not apply.
    const ContainmentDag dag =
        BuildContainmentDag({filtered.ResultKey(), full.ResultKey()},
                            {12.0, 10.0});
    EXPECT_TRUE(dag.containers[0].empty());
  }
}

TEST(ContainmentDagTest, IdenticalPairsGetNoArc) {
  const Sharing a(TS({0, 1}), {P(0, 5)}, 0);
  const Sharing b(TS({0, 1}), {P(0, 5)}, 1);
  const ContainmentDag dag =
      BuildContainmentDag({a.ResultKey(), b.ResultKey()}, {3.0, 3.0});
  EXPECT_TRUE(dag.containers[0].empty());
  EXPECT_TRUE(dag.containers[1].empty());
}

// ---------------------------------------------------------------------------
// Figure 3 reconstruction.
//
// Tables a,b,c,d,e,f with join path a-b-c and c-{d,e,f}. Costs from the
// figure: ab=4, (ab)c=10, bc=8, a(bc)=6, (abc)d=5, (abc)e=3, (abc)f=9.
// Plans: S1=ab; S2=(ab)c then d (reusing S1's ab); S3=a(bc) then d
// (reusing abc, computing its own (abc)d); S4=(ab)c then e (reusing abc);
// S5=(ab)c then f computing everything itself.
// ---------------------------------------------------------------------------
class Figure3Test : public ::testing::Test {
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
    c_ = add("c", {"k2", "k3"});
    d_ = add("d", {"k3"});
    e_ = add("e", {"k3"});
    f_ = add("f", {"k3"});
    cluster_.AddServer("s0");
    cluster_.PlaceRoundRobin(catalog_.num_tables());
    graph_ = std::make_unique<JoinGraph>(JoinGraph::FromCatalog(catalog_));

    // Unset join pairs are prohibitively expensive so LPC plans stay
    // within the figure's plan space.
    TableDrivenCostModel::Options options;
    options.random_min = 1e6;
    options.random_max = 1e6;
    model_ = std::make_unique<TableDrivenCostModel>(options);
    auto set = [this](TableSet x, TableSet y, double cost) {
      model_->SetJoinCost(x, y, cost);
    };
    set(TS({a_}), TS({b_}), 4);
    set(TS({a_, b_}), TS({c_}), 10);
    set(TS({b_}), TS({c_}), 8);
    set(TS({a_}), TS({b_, c_}), 6);
    set(TS({a_, b_, c_}), TS({d_}), 5);
    set(TS({a_, b_, c_}), TS({e_}), 3);
    set(TS({a_, b_, c_}), TS({f_}), 9);

    enumerator_ = std::make_unique<PlanEnumerator>(
        &catalog_, &cluster_, graph_.get(), model_.get(),
        EnumeratorOptions{});
    gp_ = std::make_unique<GlobalPlan>(&cluster_, model_.get());
  }

  // The plan for `sharing` whose join nodes are exactly `joins` — pinning
  // down one chain of Figure 3(a).
  SharingPlan PlanVia(const Sharing& sharing,
                      std::vector<TableSet> joins) {
    const auto plans = testing_support::EnumerateAll(*enumerator_, sharing);
    EXPECT_TRUE(plans.ok());
    std::sort(joins.begin(), joins.end());
    for (const SharingPlan& plan : *plans) {
      std::vector<TableSet> found;
      for (const PlanNode& node : plan.nodes) {
        if (node.is_join()) found.push_back(node.key.tables);
      }
      std::sort(found.begin(), found.end());
      if (found == joins) return plan;
    }
    ADD_FAILURE() << "no plan with the requested join chain";
    return plans->front();
  }

  void BuildFigure3() {
    const Sharing s1(TS({a_, b_}), {}, 0, "S1");
    const Sharing s2(TS({a_, b_, c_, d_}), {}, 0, "S2");
    const Sharing s3(TS({a_, b_, c_, d_}), {}, 0, "S3");
    const Sharing s4(TS({a_, b_, c_, e_}), {}, 0, "S4");
    const Sharing s5(TS({a_, b_, c_, f_}), {}, 0, "S5");

    const TableSet ab = TS({a_, b_});
    const TableSet bc = TS({b_, c_});
    const TableSet abc = TS({a_, b_, c_});
    ASSERT_TRUE(gp_->AddSharing(1, s1, PlanVia(s1, {ab})).ok());
    ASSERT_TRUE(gp_->AddSharing(
                       2, s2, PlanVia(s2, {ab, abc, TS({a_, b_, c_, d_})}))
                    .ok());

    // S3 reuses abc but computes its own (abc)d, as in the figure.
    GlobalPlan::AddOptions no_root;
    std::unordered_set<ViewKey, ViewKeyHash> forbid_root = {
        ViewKey(TS({a_, b_, c_, d_}))};
    no_root.forbid_reuse_keys = &forbid_root;
    ASSERT_TRUE(gp_->AddSharing(3, s3,
                                PlanVia(s3, {bc, abc, TS({a_, b_, c_, d_})}),
                                no_root)
                    .ok());

    ASSERT_TRUE(gp_->AddSharing(
                       4, s4, PlanVia(s4, {ab, abc, TS({a_, b_, c_, e_})}))
                    .ok());

    // S5 computes its own ab and (ab)c (the figure's right-hand chain):
    // reuse of every key of its plan, leaves included, is forbidden.
    const SharingPlan p5 = PlanVia(s5, {ab, abc, TS({a_, b_, c_, f_})});
    std::unordered_set<ViewKey, ViewKeyHash> forbid_all;
    for (const PlanNode& node : p5.nodes) forbid_all.insert(node.key);
    GlobalPlan::AddOptions no_reuse;
    no_reuse.forbid_reuse_keys = &forbid_all;
    ASSERT_TRUE(gp_->AddSharing(5, s5, p5, no_reuse).ok());
  }

  Catalog catalog_;
  Cluster cluster_;
  std::unique_ptr<JoinGraph> graph_;
  std::unique_ptr<TableDrivenCostModel> model_;
  std::unique_ptr<PlanEnumerator> enumerator_;
  std::unique_ptr<GlobalPlan> gp_;
  TableId a_ = 0, b_ = 0, c_ = 0, d_ = 0, e_ = 0, f_ = 0;
};

TEST_F(Figure3Test, GlobalPlanCostIsFifty) {
  BuildFigure3();
  EXPECT_NEAR(gp_->TotalCost(), 50.0, 1e-9);
}

TEST_F(Figure3Test, GpcMatchesTheFigure) {
  BuildFigure3();
  EXPECT_NEAR(gp_->GPC(1), 4.0, 1e-9);
  EXPECT_NEAR(gp_->GPC(2), 19.0, 1e-9);
  EXPECT_NEAR(gp_->GPC(3), 19.0, 1e-9);
  EXPECT_NEAR(gp_->GPC(4), 17.0, 1e-9);
  EXPECT_NEAR(gp_->GPC(5), 23.0, 1e-9);
}

TEST_F(Figure3Test, SavingsMatchDefinition51) {
  BuildFigure3();
  const auto stats = gp_->ComputeReuseStats();
  const GlobalPlan::ReuseStat* ab = nullptr;
  const GlobalPlan::ReuseStat* abc = nullptr;
  for (const auto& st : stats) {
    if (st.key == ViewKey(TS({a_, b_}))) ab = &st;
    if (st.key == ViewKey(TS({a_, b_, c_}))) abc = &st;
  }
  ASSERT_NE(ab, nullptr);
  ASSERT_NE(abc, nullptr);
  // "If we remove the red arrow ... the cost of the global plan increases
  // by 4" — S2 recomputes ab.
  EXPECT_NEAR(ab->saving, 4.0, 1e-9);
  EXPECT_EQ(ab->num, 4);  // S1, S2, S4, S5 contain ab in their plans
  // "If we remove the two green arrows ... increases by 28" — S3 pays
  // bc + a(bc) = 14, S4 pays ab + (ab)c = 14.
  EXPECT_NEAR(abc->saving, 28.0, 1e-9);
  EXPECT_EQ(abc->num, 4);  // S2, S3, S4, S5
}

TEST_F(Figure3Test, EndToEndFairCostSatisfiesAllCriteria) {
  BuildFigure3();
  LpcCalculator lpc(enumerator_.get(), model_.get());
  const auto problem = BuildFairCostProblem(*gp_, &lpc);
  ASSERT_TRUE(problem.ok());
  EXPECT_NEAR(problem->global_cost, 50.0, 1e-9);

  const auto result = FairCost::Compute(problem->entries, 50.0);
  ASSERT_TRUE(result.ok());
  const FairnessReport report =
      EvaluateFairness(problem->entries, 50.0, result->ac);
  EXPECT_DOUBLE_EQ(report.lpc_fraction, 1.0);
  EXPECT_DOUBLE_EQ(report.identical_fraction, 1.0);
  EXPECT_DOUBLE_EQ(report.contained_fraction, 1.0);
  EXPECT_NEAR(report.recovery_error, 0.0, 1e-9);
  // S2 and S3 are identical sharings: equal attributed costs.
  double ac2 = -1, ac3 = -1;
  for (size_t i = 0; i < problem->ids.size(); ++i) {
    if (problem->ids[i] == 2) ac2 = result->ac[i];
    if (problem->ids[i] == 3) ac3 = result->ac[i];
  }
  EXPECT_NEAR(ac2, ac3, 1e-9);
}

}  // namespace
}  // namespace dsm
