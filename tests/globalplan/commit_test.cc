// GlobalPlan::Commit applies the evaluation a caller scored and never
// re-decides it:
//  - an evaluation taken before another commit created a node, before a
//    removal killed one, or before a server went down or up is stale and
//    refused with FailedPrecondition, as are a plan index out of range and
//    an evaluation of another space; a refused commit leaves the global
//    plan as it was;
//  - a commit makes no reuse probe (dsm.globalplan.reuse_index_hits and
//    _misses stand still), and an identical-plan hit in
//    OnlinePlanner::ProcessSharing probes each plan node once.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cost/default_cost_model.h"
#include "globalplan/global_plan.h"
#include "obs/metrics.h"
#include "online/greedy.h"
#include "plan/enumerator.h"
#include "plan/join_graph.h"
#include "workload/twitter.h"

namespace dsm {
namespace {

struct Rig {
  Catalog catalog;
  Cluster cluster;
  std::unique_ptr<JoinGraph> graph;
  std::unique_ptr<DefaultCostModel> model;
  std::unique_ptr<PlanEnumerator> enumerator;
  std::unique_ptr<GlobalPlan> gp;
  std::vector<Sharing> base;  // Table 1's S1..S25

  PlanSpace Enumerate(const Sharing& sharing) const {
    auto space = enumerator->Enumerate(sharing);
    EXPECT_TRUE(space.ok()) << space.status().ToString();
    return *std::move(space);
  }

  PlannerContext Context() {
    PlannerContext ctx;
    ctx.catalog = &catalog;
    ctx.cluster = &cluster;
    ctx.graph = graph.get();
    ctx.model = model.get();
    ctx.global_plan = gp.get();
    ctx.enumerator = enumerator.get();
    return ctx;
  }
};

std::unique_ptr<Rig> MakeRig() {
  auto rig = std::make_unique<Rig>();
  const auto tables = BuildTwitterCatalog(&rig->catalog);
  EXPECT_TRUE(tables.ok());
  for (int i = 0; i < 4; ++i) {
    rig->cluster.AddServer("m" + std::to_string(i));
  }
  rig->cluster.PlaceRoundRobin(rig->catalog.num_tables());
  rig->graph =
      std::make_unique<JoinGraph>(JoinGraph::FromCatalog(rig->catalog));
  rig->model =
      std::make_unique<DefaultCostModel>(&rig->catalog, &rig->cluster);
  rig->enumerator = std::make_unique<PlanEnumerator>(
      &rig->catalog, &rig->cluster, rig->graph.get(), rig->model.get(),
      EnumeratorOptions{});
  rig->gp = std::make_unique<GlobalPlan>(&rig->cluster, rig->model.get());
  rig->base = TwitterBaseSharings(*tables, rig->cluster);
  return rig;
}

size_t Cheapest(const GlobalPlan::SpaceEvaluation& eval) {
  const int best = eval.CheapestFeasible();
  EXPECT_GE(best, 0);
  return static_cast<size_t>(best);
}

uint64_t ReuseProbes() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  return registry.GetCounter("dsm.globalplan.reuse_index_hits")->value() +
         registry.GetCounter("dsm.globalplan.reuse_index_misses")->value();
}

// Commits `eval` under `id` and expects the stale refusal, with the global
// plan left as it was.
void ExpectRefused(Rig* rig, SharingId id, const Sharing& sharing,
                   const PlanSpace& space,
                   const GlobalPlan::SpaceEvaluation& eval, size_t k) {
  const double total = rig->gp->TotalCost();
  const size_t sharings = rig->gp->num_sharings();
  const size_t views = rig->gp->num_alive_views();
  const auto got = rig->gp->Commit(id, sharing, space, eval, k, eval.lpc);
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition)
      << got.status().ToString();
  EXPECT_EQ(rig->gp->record(id), nullptr);
  EXPECT_EQ(rig->gp->TotalCost(), total);
  EXPECT_EQ(rig->gp->num_sharings(), sharings);
  EXPECT_EQ(rig->gp->num_alive_views(), views);
}

TEST(CommitTest, StaleAfterAnotherCommitCreatesNode) {
  auto rig = MakeRig();
  const Sharing& a = rig->base[0];
  const Sharing& b = rig->base[1];
  const PlanSpace sa = rig->Enumerate(a);
  const PlanSpace sb = rig->Enumerate(b);
  const auto ea = rig->gp->EvaluateSpace(sa);
  const auto eb = rig->gp->EvaluateSpace(sb);
  ASSERT_TRUE(rig->gp->Commit(1, a, sa, ea, Cheapest(ea), ea.lpc).ok());
  ASSERT_GT(rig->gp->num_alive_views(), 0u);

  ExpectRefused(rig.get(), 2, b, sb, eb, Cheapest(eb));
  // Evaluated again against the grown global plan, it commits.
  const auto again = rig->gp->EvaluateSpace(sb);
  EXPECT_TRUE(rig->gp->Commit(2, b, sb, again, Cheapest(again), again.lpc)
                  .ok());
}

TEST(CommitTest, StaleAfterRemovalKillsNode) {
  auto rig = MakeRig();
  const Sharing& a = rig->base[0];
  const Sharing& b = rig->base[1];
  const PlanSpace sa = rig->Enumerate(a);
  const PlanSpace sb = rig->Enumerate(b);
  const auto ea = rig->gp->EvaluateSpace(sa);
  ASSERT_TRUE(rig->gp->Commit(1, a, sa, ea, Cheapest(ea), ea.lpc).ok());
  const auto eb = rig->gp->EvaluateSpace(sb);
  ASSERT_TRUE(rig->gp->RemoveSharing(1).ok());
  ASSERT_EQ(rig->gp->num_alive_views(), 0u);

  ExpectRefused(rig.get(), 2, b, sb, eb, Cheapest(eb));
}

TEST(CommitTest, StaleAfterServerDownAndUp) {
  auto rig = MakeRig();
  const Sharing& a = rig->base[0];
  const PlanSpace sa = rig->Enumerate(a);
  const auto ea = rig->gp->EvaluateSpace(sa);
  const ServerId other = a.destination() == 3 ? 2 : 3;

  ASSERT_TRUE(rig->cluster.MarkDown(other).ok());
  ExpectRefused(rig.get(), 1, a, sa, ea, Cheapest(ea));
  // Liveness is back as it was, but the evaluation predates both flips.
  ASSERT_TRUE(rig->cluster.MarkUp(other).ok());
  ExpectRefused(rig.get(), 1, a, sa, ea, Cheapest(ea));

  const auto again = rig->gp->EvaluateSpace(sa);
  EXPECT_TRUE(rig->gp->Commit(1, a, sa, again, Cheapest(again), again.lpc)
                  .ok());
}

TEST(CommitTest, RefusesIndexOutOfRangeAndMismatchedSpace) {
  auto rig = MakeRig();
  // The first base sharing with a choice of plans.
  size_t pick = 0;
  while (pick + 1 < rig->base.size() &&
         rig->Enumerate(rig->base[pick]).size() < 2) {
    ++pick;
  }
  const Sharing& a = rig->base[pick];
  const PlanSpace sa = rig->Enumerate(a);
  ASSERT_GT(sa.size(), 1u);
  const auto ea = rig->gp->EvaluateSpace(sa);

  ExpectRefused(rig.get(), 1, a, sa, ea, sa.size());
  const PlanSpace single =
      PlanSpace::Of(sa.Materialize(Cheapest(ea)), rig->model.get());
  ExpectRefused(rig.get(), 1, a, single, ea, 0);

  ASSERT_TRUE(rig->gp->Commit(1, a, sa, ea, Cheapest(ea), ea.lpc).ok());
  const auto again = rig->gp->EvaluateSpace(sa);
  EXPECT_EQ(rig->gp->Commit(1, a, sa, again, 0, again.lpc).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(CommitTest, MakesNoReuseProbe) {
  auto rig = MakeRig();
  // Overlapping sharings, so later evaluations probe live views.
  SharingId id = 1;
  for (const Sharing& sharing : {rig->base[0], rig->base[1], rig->base[0]}) {
    const PlanSpace space = rig->Enumerate(sharing);
    const auto eval = rig->gp->EvaluateSpace(space);
    const uint64_t probes = ReuseProbes();
    const auto rec =
        rig->gp->Commit(id, sharing, space, eval, Cheapest(eval), eval.lpc);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(ReuseProbes(), probes) << "sharing " << id;
    EXPECT_EQ((*rec)->marginal_cost,
              eval.plans[Cheapest(eval)].marginal_cost);
    ++id;
  }
  EXPECT_GT(ReuseProbes(), 0u);
}

TEST(CommitTest, IdenticalHitProbesEachPlanNodeOnce) {
  auto rig = MakeRig();
  GreedyPlanner planner(rig->Context());
  const Sharing& a = rig->base[2];
  const auto first = planner.ProcessSharing(a);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // Every node of the first plan is now a live view, so each node of the
  // identical plan probes the reuse index exactly once.
  const uint64_t probes = ReuseProbes();
  const auto second = planner.ProcessSharing(a);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_TRUE(second->reused_identical);
  EXPECT_EQ(ReuseProbes() - probes, first->plan.nodes.size());
}

}  // namespace
}  // namespace dsm
