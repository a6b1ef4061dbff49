// GlobalPlan::EvaluateSpace, its one reuse rule, against two referees:
// for every plan k of an enumerated space, the one-pass evaluation over the
// fragment DAG must equal, bit for bit, the dry run of Materialize(k) as a
// space of one (testing/dry_run.h) — marginal cost, standalone cost,
// feasibility and the per-node decision walk — and that must in turn
// equal the brute-force ReuseOracle
// (testing/reuse_oracle.h), which shares no evaluation code with
// GlobalPlan. The space's LPC must be the minimum standalone cost. The
// global plans are churned (random removals) with one server down and one
// server near its capacity, so reuse, liveness and capacity all decide
// some plans. A dry run must leave the global plan's cost, views and loads
// untouched. The cheapest feasible plan is then committed from that same
// evaluation (GlobalPlan::Commit), and the record must hold exactly the
// oracle's decisions for Materialize(k). The evaluation scans the reuse
// index once per (slot, server) its plans reach — the reuse_index_misses
// counter — and answers every other fragment it decides from that scan —
// reuse_index_hits.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "globalplan/global_plan.h"
#include "market/rig.h"
#include "obs/metrics.h"
#include "testing/reuse_oracle.h"
#include "workload/predicate_gen.h"

namespace dsm {
namespace {

using NodeDecision = GlobalPlan::NodeDecision;

// Twitter sharings with 0–3 predicates, analytical cost model.
Scenario TwitterWorld(uint64_t seed) {
  TwitterScenario world = MakeTwitterScenario(5);
  TwitterSequenceOptions seq;
  seq.num_sharings = 36;
  seq.max_predicates = 3;
  seq.frac_with_predicates = 0.7;
  seq.seed = seed;
  world.sharings = GenerateTwitterSequence(*world.catalog, world.tables,
                                           *world.cluster, seq);
  return world;
}

// Star sharings (up to 5 tables) with 0–3 random predicates attached,
// table-driven cost model (stateful: costs drawn in first-query order).
Scenario StarWorld(uint64_t seed) {
  StarScenario world = MakeStarScenario(
      2, 8, 5, TableDrivenCostModel::Options{.seed = seed,
                                             .transfer_cost = 7.0});
  StarSequenceOptions seq;
  seq.num_sharings = 36;
  seq.max_tables = 5;
  seq.seed = seed;
  Rng rng(seed ^ 0x5eed);
  for (const Sharing& s :
       GenerateStarSharings(world.schema, *world.cluster, seq)) {
    const int count = static_cast<int>(rng.UniformInt(0, 3));
    world.sharings.emplace_back(
        s.tables(), RandomPredicates(*world.catalog, s.tables(), count, &rng),
        s.destination());
  }
  return world;
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

// Fragments some plan of `space` reaches (every one of them is decided),
// and the distinct (slot, server) pairs among them.
std::pair<uint64_t, uint64_t> ReachedFragmentsAndPairs(
    const PlanSpace& space) {
  std::vector<char> reached(space.fragments().size(), 0);
  std::set<std::pair<int, ServerId>> pairs;
  const auto reach = [&](const auto& self, int f) -> void {
    if (reached[static_cast<size_t>(f)] != 0) return;
    reached[static_cast<size_t>(f)] = 1;
    const PlanSpace::Fragment& frag = space.fragment(f);
    pairs.emplace(frag.slot, frag.server);
    if (frag.left >= 0) self(self, frag.left);
    if (frag.right >= 0) self(self, frag.right);
  };
  for (size_t k = 0; k < space.size(); ++k) reach(reach, space.root(k));
  return {static_cast<uint64_t>(
              std::count(reached.begin(), reached.end(), char{1})),
          pairs.size()};
}

struct Seen {
  size_t plans = 0;
  size_t infeasible = 0;
  size_t reused_nodes = 0;
  uint64_t scans = 0;    // reuse index scans
  uint64_t decided = 0;  // fragments decided
};

// Checks every plan of `space` against the dry run of its node array, and
// that against the oracle.
void ExpectSpaceMatchesPlans(const Rig& rig,
                             testing_support::ReuseOracle* oracle,
                             const PlanSpace& space, Seen* seen) {
  const GlobalPlan& gp = *rig.global_plan;
  const double total_before = gp.TotalCost();
  const size_t alive_before = gp.num_alive_views();
  std::vector<double> loads_before;
  for (ServerId s = 0; s < rig.ctx.cluster->num_servers(); ++s) {
    loads_before.push_back(gp.ServerLoad(s));
  }

  const uint64_t hits_before = CounterValue("dsm.globalplan.reuse_index_hits");
  const uint64_t misses_before =
      CounterValue("dsm.globalplan.reuse_index_misses");
  const GlobalPlan::SpaceEvaluation got = gp.EvaluateSpace(space);
  const uint64_t hits =
      CounterValue("dsm.globalplan.reuse_index_hits") - hits_before;
  const uint64_t misses =
      CounterValue("dsm.globalplan.reuse_index_misses") - misses_before;
  const auto [decided, pairs] = ReachedFragmentsAndPairs(space);
  EXPECT_EQ(misses, pairs);
  EXPECT_EQ(hits + misses, decided);
  seen->scans += misses;
  seen->decided += decided;

  EXPECT_EQ(gp.TotalCost(), total_before);
  EXPECT_EQ(gp.num_alive_views(), alive_before);
  for (ServerId s = 0; s < rig.ctx.cluster->num_servers(); ++s) {
    EXPECT_EQ(gp.ServerLoad(s), loads_before[s]);
  }

  ASSERT_EQ(got.plans.size(), space.size());
  double lpc = std::numeric_limits<double>::infinity();
  for (size_t k = 0; k < space.size(); ++k) {
    const SharingPlan plan = space.Materialize(k);
    const testing_support::PlanEvaluation want =
        testing_support::DryRun(gp, plan, rig.ctx.model);
    testing_support::ExpectIdenticalEvaluations(want, oracle->Evaluate(plan));
    const GlobalPlan::SpaceEvaluation::Plan& p = got.plans[k];
    EXPECT_EQ(p.marginal_cost, want.marginal_cost) << "plan " << k;
    EXPECT_EQ(p.standalone_cost, want.standalone_cost) << "plan " << k;
    EXPECT_EQ(p.standalone_cost, space.StandaloneCost(k)) << "plan " << k;
    EXPECT_EQ(p.feasible, want.feasible) << "plan " << k;
    lpc = std::min(lpc, want.standalone_cost);

    const auto steps = got.steps_of(k);
    ASSERT_EQ(steps.size(), plan.nodes.size()) << "plan " << k;
    for (size_t i = 0; i < steps.size(); ++i) {
      const PlanNode node = space.node(steps[i].fragment);
      EXPECT_EQ(node.type, plan.nodes[i].type);
      EXPECT_TRUE(node.key == plan.nodes[i].key);
      EXPECT_EQ(node.server, plan.nodes[i].server);
      const NodeDecision d = got.decision(steps[i]);
      const NodeDecision& w = want.decisions[i];
      EXPECT_EQ(d.state, w.state) << "plan " << k << " node " << i;
      EXPECT_EQ(d.reuse_source, w.reuse_source);
      EXPECT_EQ(d.needs_residual, w.needs_residual);
      EXPECT_EQ(d.marginal_cost, w.marginal_cost);
      if (w.state == NodeDecision::kReused) ++seen->reused_nodes;
    }
    ++seen->plans;
    if (!want.feasible) ++seen->infeasible;
  }
  EXPECT_EQ(got.lpc, lpc);
}

// The record Commit wrote for plan `chosen` against the oracle's
// evaluation of it: same nodes, same decisions, same marginal cost, and a
// GPC of its standalone cost plus the residual ops it created.
void ExpectRecordMatches(const GlobalPlan::SharingRecord& rec,
                         const SharingPlan& chosen,
                         const testing_support::PlanEvaluation& want) {
  ASSERT_EQ(rec.plan.nodes.size(), chosen.nodes.size());
  for (size_t i = 0; i < chosen.nodes.size(); ++i) {
    EXPECT_EQ(rec.plan.nodes[i].type, chosen.nodes[i].type);
    EXPECT_TRUE(rec.plan.nodes[i].key == chosen.nodes[i].key);
    EXPECT_EQ(rec.plan.nodes[i].server, chosen.nodes[i].server);
    EXPECT_EQ(rec.plan.nodes[i].left, chosen.nodes[i].left);
    EXPECT_EQ(rec.plan.nodes[i].right, chosen.nodes[i].right);
  }
  testing_support::ExpectIdenticalEvaluations(
      testing_support::RecordEvaluation(rec, want.feasible), want);
  EXPECT_EQ(rec.gpc, want.standalone_cost + rec.residual_cost);
}

// Drives `world`'s sequence through a fresh plan state enumerating with
// `options`: every space is checked, then its cheapest
// feasible plan is committed and the record checked; a quarter of the
// arrivals also remove a random earlier sharing. A third of the way in,
// server 1 goes down; half way, server 2 gets just half a fragment's load
// of headroom left.
void RunChurn(const Scenario& world, EnumeratorOptions options,
              uint64_t seed, bool expect_capped = false) {
  const Rig rig = MakeRig(world, options);
  testing_support::ReuseOracle oracle(rig.global_plan.get(),
                                      world.cluster.get(), world.model.get());
  Rng rng(seed);
  std::vector<SharingId> active;
  SharingId next_id = 1;
  Seen seen;
  size_t capped = 0;
  const size_t n = world.sharings.size();
  for (size_t i = 0; i < n; ++i) {
    const Sharing& sharing = world.sharings[i];
    if (i == n / 3) {
      ASSERT_TRUE(world.cluster->MarkDown(1).ok());
    }
    if (!active.empty() && rng.Bernoulli(0.25)) {
      const auto pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(active.size()) - 1));
      ASSERT_TRUE(rig.global_plan->RemoveSharing(active[pick]).ok());
      oracle.Removed(active[pick]);
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    const auto space = rig.enumerator->Enumerate(sharing);
    ASSERT_TRUE(space.ok()) << space.status().ToString();
    const size_t cap = rig.enumerator->options().max_plans;
    EXPECT_LE(space->size(), cap);
    if (space->size() == cap) ++capped;
    if (i == n / 2) {
      double max_load = 0.0;
      for (const PlanSpace::Fragment& f : space->fragments()) {
        if (f.server == 2) max_load = std::max(max_load, f.load);
      }
      world.cluster->mutable_server(2).capacity_tuples_per_unit =
          rig.global_plan->ServerLoad(2) + 0.5 * max_load;
    }
    ExpectSpaceMatchesPlans(rig, &oracle, *space, &seen);
    const GlobalPlan::SpaceEvaluation evals =
        rig.global_plan->EvaluateSpace(*space);
    const int best = evals.CheapestFeasible();
    if (best < 0) continue;
    const auto k = static_cast<size_t>(best);
    const SharingPlan chosen = space->Materialize(k);
    const testing_support::PlanEvaluation want =
        oracle.Evaluate(chosen);
    const double total_before = rig.global_plan->TotalCost();
    const auto rec =
        rig.global_plan->Commit(next_id, sharing, *space, evals, k, evals.lpc);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    ExpectRecordMatches(**rec, chosen, want);
    EXPECT_EQ((*rec)->lpc, evals.lpc);
    EXPECT_NEAR(rig.global_plan->TotalCost() - total_before, want.marginal_cost,
                1e-9 * std::max(1.0, rig.global_plan->TotalCost()));
    oracle.Added(next_id);
    active.push_back(next_id++);
  }
  EXPECT_GT(seen.plans, 200u);
  if (expect_capped) {
    EXPECT_GT(capped, 0u);
  }
  EXPECT_GT(seen.infeasible, 0u);
  EXPECT_GT(seen.reused_nodes, 0u);
  // Slots hold several fragments per server, so scans answer many.
  EXPECT_LT(seen.scans, seen.decided);
}

class PlanSpaceOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlanSpaceOracleTest, TwitterExhaustive) {
  RunChurn(TwitterWorld(GetParam()), EnumeratorOptions{}, GetParam());
}

TEST_P(PlanSpaceOracleTest, TwitterBeam) {
  EnumeratorOptions options;
  options.per_subset_cap = 4;
  RunChurn(TwitterWorld(GetParam() ^ 0xbea), options, GetParam());
}

TEST_P(PlanSpaceOracleTest, TwitterMaxPlansCap) {
  EnumeratorOptions options;
  options.max_plans = 37;
  RunChurn(TwitterWorld(GetParam() ^ 0xcab), options, GetParam(),
           /*expect_capped=*/true);
}

TEST_P(PlanSpaceOracleTest, StarExhaustive) {
  RunChurn(StarWorld(GetParam()), EnumeratorOptions{}, GetParam());
}

TEST_P(PlanSpaceOracleTest, StarBeam) {
  EnumeratorOptions options;
  options.per_subset_cap = 3;
  RunChurn(StarWorld(GetParam() ^ 0xbea), options, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanSpaceOracleTest,
                         ::testing::Values(5, 23, 101));

}  // namespace
}  // namespace dsm
