// The indexed reuse lookup against a brute-force oracle
// (testing/reuse_oracle.h): over random predicated workloads with
// add/remove churn and server liveness flips, every candidate plan's
// GlobalPlan evaluation must match, bit for bit, a re-derivation that
// scans all alive views for the cheapest source.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "globalplan/global_plan.h"
#include "market/rig.h"
#include "testing/plans.h"
#include "testing/reuse_oracle.h"

namespace dsm {
namespace {

using testing_support::ExpectIdenticalEvaluations;
using testing_support::ReuseOracle;
using NodeDecision = GlobalPlan::NodeDecision;
using testing_support::DryRun;
using testing_support::PlanEvaluation;

// Integrates `plan` and checks the committed decisions against the oracle.
void AddAndCheck(const Rig& rig, ReuseOracle* oracle, SharingId id,
                 const Sharing& sharing, const SharingPlan& plan) {
  const PlanEvaluation want = oracle->Evaluate(plan);
  const auto got = rig.global_plan->AddSharing(id, sharing, plan);
  ASSERT_TRUE(got.ok());
  ExpectIdenticalEvaluations(
      testing_support::RecordEvaluation(**got, want.feasible), want);
  oracle->Added(id);
}

class ReuseOracleTest : public ::testing::TestWithParam<uint64_t> {};

// Every candidate plan of a long predicated sequence — over a thousand
// plans per seed — evaluates as the oracle says, through add/remove churn
// and repeated reuse of hot subexpressions.
TEST_P(ReuseOracleTest, RandomPlansMatchOracle) {
  const TwitterScenario world = MakeTwitterScenario(4);
  const Rig rig = MakeRig(world);
  ReuseOracle oracle(rig.global_plan.get(), world.cluster.get(),
                     world.model.get());
  TwitterSequenceOptions options;
  options.num_sharings = 120;
  options.max_predicates = 2;
  options.frac_with_predicates = 0.5;
  options.seed = GetParam();
  const std::vector<Sharing> sequence = GenerateTwitterSequence(
      *world.catalog, world.tables, *world.cluster, options);

  Rng rng(GetParam() ^ 0xfeed);
  std::vector<SharingId> active;
  SharingId next_id = 1;
  size_t plans_compared = 0;

  for (const Sharing& sharing : sequence) {
    if (!active.empty() && rng.Bernoulli(0.25)) {
      const size_t pick = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(active.size()) - 1));
      ASSERT_TRUE(rig.global_plan->RemoveSharing(active[pick]).ok());
      oracle.Removed(active[pick]);
      active.erase(active.begin() + static_cast<int64_t>(pick));
    }

    const auto plans = testing_support::EnumerateAll(*rig.enumerator, sharing);
    ASSERT_TRUE(plans.ok());
    size_t best = 0;
    double best_cost = 0.0;
    for (size_t i = 0; i < plans->size(); ++i) {
      const PlanEvaluation got =
          DryRun(*rig.global_plan, (*plans)[i], world.model.get());
      ExpectIdenticalEvaluations(got, oracle.Evaluate((*plans)[i]));
      ++plans_compared;
      if (i == 0 || got.marginal_cost < best_cost) {
        best = i;
        best_cost = got.marginal_cost;
      }
    }
    AddAndCheck(rig, &oracle, next_id, sharing, (*plans)[best]);
    active.push_back(next_id);
    ++next_id;
  }
  EXPECT_GT(plans_compared, 1000u);
}

// Liveness flips change the reuse answers: after MarkDown the
// global plan must stop proposing reuse from the dead server, and after
// MarkUp it must propose it again, both as the oracle says.
TEST_P(ReuseOracleTest, LivenessFlipsMatchOracle) {
  const TwitterScenario world = MakeTwitterScenario(4);
  const Rig rig = MakeRig(world);
  ReuseOracle oracle(rig.global_plan.get(), world.cluster.get(),
                     world.model.get());
  TwitterSequenceOptions options;
  options.num_sharings = 40;
  options.max_predicates = 1;
  options.seed = GetParam() ^ 0xdead;
  const std::vector<Sharing> sequence = GenerateTwitterSequence(
      *world.catalog, world.tables, *world.cluster, options);

  SharingId next_id = 1;
  size_t plans_compared = 0;
  Rng rng(GetParam());
  for (const Sharing& sharing : sequence) {
    if (rng.Bernoulli(0.2)) {
      const ServerId victim =
          static_cast<ServerId>(rng.UniformInt(0, 3));
      if (world.cluster->is_up(victim) &&
          world.cluster->num_live_servers() > 2) {
        ASSERT_TRUE(world.cluster->MarkDown(victim).ok());
      } else if (!world.cluster->is_up(victim)) {
        ASSERT_TRUE(world.cluster->MarkUp(victim).ok());
      }
    }
    const auto plans = testing_support::EnumerateAll(*rig.enumerator, sharing);
    ASSERT_TRUE(plans.ok());
    for (const SharingPlan& plan : *plans) {
      ExpectIdenticalEvaluations(
          DryRun(*rig.global_plan, plan, world.model.get()),
          oracle.Evaluate(plan));
      ++plans_compared;
    }
    AddAndCheck(rig, &oracle, next_id, sharing, plans->front());
    ++next_id;
  }
  EXPECT_GT(plans_compared, 1000u);
}

PlanNode Leaf(TableId table, ServerId server) {
  PlanNode node;
  node.key = ViewKey(TableSet::Of(table));
  node.server = server;
  node.base_table = table;
  return node;
}

PlanNode Join(TableSet tables, ServerId server, int left, int right) {
  PlanNode node;
  node.type = PlanNodeType::kJoin;
  node.key = ViewKey(tables);
  node.server = server;
  node.left = left;
  node.right = right;
  return node;
}

// A plan whose nodes are topological but not in post-order
// ([A, B, C, A⋈B, (A⋈B)⋈C]; Materialize would store C after A⋈B) keeps
// every decision at its node index, prices standalone_cost as PlanCost
// does, and is recorded exactly as given.
TEST(ReuseOracleHandBuilt, NonPostOrderPlanKeepsNodeIndices) {
  const TwitterScenario world = MakeTwitterScenario(4);
  const Rig rig = MakeRig(world);
  ReuseOracle oracle(rig.global_plan.get(), world.cluster.get(),
                     world.model.get());
  const TableId a = world.tables.users;
  const TableId b = world.tables.tweets;
  const TableId c = world.tables.curloc;
  const TableSet ab = TableSet::Of(a).Union(TableSet::Of(b));
  const ServerId dest = 3;
  const auto home = [&](TableId t) { return *world.cluster->HomeOf(t); };

  // Sharing 1 materializes A⋈B on `dest`.
  const Sharing s1(ab, {}, dest);
  SharingPlan p1;
  p1.nodes = {Leaf(a, home(a)), Leaf(b, home(b)), Join(ab, dest, 0, 1)};
  AddAndCheck(rig, &oracle, 1, s1, p1);

  const Sharing s2(ab.Union(TableSet::Of(c)), {}, dest);
  SharingPlan p2;
  p2.nodes = {Leaf(a, home(a)), Leaf(b, home(b)), Leaf(c, home(c)),
              Join(ab, dest, 0, 1), Join(s2.tables(), dest, 3, 2)};
  ASSERT_NE(PlanSpace::Of(p2, world.model.get()).Materialize(0), p2);

  const PlanEvaluation eval = DryRun(*rig.global_plan, p2, world.model.get());
  ExpectIdenticalEvaluations(eval, oracle.Evaluate(p2));
  EXPECT_EQ(eval.standalone_cost, PlanCost(p2, world.model.get()));
  const NodeDecision::State want[] = {
      NodeDecision::kSkipped, NodeDecision::kSkipped, NodeDecision::kFresh,
      NodeDecision::kReused, NodeDecision::kFresh};
  for (size_t i = 0; i < p2.nodes.size(); ++i) {
    EXPECT_EQ(eval.decisions[i].state, want[i]) << "node " << i;
  }

  AddAndCheck(rig, &oracle, 2, s2, p2);
  const GlobalPlan::SharingRecord* rec = rig.global_plan->record(2);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->plan, p2);
  EXPECT_EQ(rec->plan_to_gp[3], rig.global_plan->record(1)->plan_to_gp[2]);
  for (size_t i = 0; i < p2.nodes.size(); ++i) {
    EXPECT_EQ(rec->standalone_cost[i],
              PlanNodeCost(p2, i, world.model.get()));
  }
}

// A failed server's blast radius reaches a sharing none of whose plan
// nodes sits on it. Sharing 1 materializes A⋈B on server 3, which holds no
// other view. Sharing 2 computes (A⋈B)⋈C on server 0 and takes A⋈B from
// sharing 1's view through a residual copy, so that view lies two levels
// below sharing 2's root and is reached only through global-plan edges.
TEST(ReuseOracleHandBuilt, BlastRadiusFollowsGlobalPlanEdges) {
  const TwitterScenario world = MakeTwitterScenario(4);
  const Rig rig = MakeRig(world);
  ReuseOracle oracle(rig.global_plan.get(), world.cluster.get(),
                     world.model.get());
  const TableId a = world.tables.tweets;
  const TableId b = world.tables.urls;
  const TableId c = world.tables.users;
  const TableSet ab = TableSet::Of(a).Union(TableSet::Of(b));
  const ServerId failed = 3;
  const ServerId dest = 0;
  const auto home = [&](TableId t) { return *world.cluster->HomeOf(t); };
  for (const TableId t : {a, b, c}) ASSERT_NE(home(t), failed);

  const Sharing s1(ab, {}, failed);
  SharingPlan p1;
  p1.nodes = {Leaf(a, home(a)), Leaf(b, home(b)), Join(ab, failed, 0, 1)};
  AddAndCheck(rig, &oracle, 1, s1, p1);
  const int source = rig.global_plan->record(1)->plan_to_gp[2];

  const Sharing s2(ab.Union(TableSet::Of(c)), {}, dest);
  SharingPlan p2;
  p2.nodes = {Leaf(a, home(a)), Leaf(b, home(b)), Join(ab, dest, 0, 1),
              Leaf(c, home(c)), Join(s2.tables(), dest, 2, 3)};
  AddAndCheck(rig, &oracle, 2, s2, p2);
  const GlobalPlan::SharingRecord* rec = rig.global_plan->record(2);
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->decisions[2].state, NodeDecision::kReused);
  ASSERT_EQ(rec->decisions[2].reuse_source, source);
  ASSERT_TRUE(rec->decisions[2].needs_residual);
  for (size_t i = 0; i < rec->plan_to_gp.size(); ++i) {
    EXPECT_NE(rec->plan_to_gp[i], source) << "node " << i;
    if (rec->plan_to_gp[i] >= 0) {
      EXPECT_NE(rig.global_plan->node_server(rec->plan_to_gp[i]), failed);
    }
  }

  EXPECT_EQ(rig.global_plan->SharingsTouchingServer(failed),
            (std::vector<SharingId>{1, 2}));
  // With sharing 1 gone, its view lives on for sharing 2 alone.
  ASSERT_TRUE(rig.global_plan->RemoveSharing(1).ok());
  oracle.Removed(1);
  EXPECT_EQ(rig.global_plan->SharingsTouchingServer(failed),
            (std::vector<SharingId>{2}));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReuseOracleTest,
                         ::testing::Values(3, 17, 91, 257));

}  // namespace
}  // namespace dsm
