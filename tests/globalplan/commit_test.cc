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

#include "globalplan/global_plan.h"
#include "market/rig.h"
#include "obs/metrics.h"
#include "online/greedy.h"

namespace dsm {
namespace {

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

// The Twitter schema on four machines, one plan state over it, and
// Table 1's S1..S25.
class CommitTest : public ::testing::Test {
 protected:
  PlanSpace Enumerate(const Sharing& sharing) const {
    auto space = rig_.enumerator->Enumerate(sharing);
    EXPECT_TRUE(space.ok()) << space.status().ToString();
    return *std::move(space);
  }

  // Commits `eval` under `id` and expects the stale refusal, with the
  // global plan left as it was.
  void ExpectRefused(SharingId id, const Sharing& sharing,
                     const PlanSpace& space,
                     const GlobalPlan::SpaceEvaluation& eval, size_t k) {
    const double total = gp_.TotalCost();
    const size_t sharings = gp_.num_sharings();
    const size_t views = gp_.num_alive_views();
    const auto got = gp_.Commit(id, sharing, space, eval, k, eval.lpc);
    EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition)
        << got.status().ToString();
    EXPECT_EQ(gp_.record(id), nullptr);
    EXPECT_EQ(gp_.TotalCost(), total);
    EXPECT_EQ(gp_.num_sharings(), sharings);
    EXPECT_EQ(gp_.num_alive_views(), views);
  }

  const TwitterScenario world_ = MakeTwitterScenario(4);
  const Rig rig_ = MakeRig(world_);
  const std::vector<Sharing> base_ =
      TwitterBaseSharings(world_.tables, *world_.cluster);
  GlobalPlan& gp_ = *rig_.global_plan;
};

TEST_F(CommitTest, StaleAfterAnotherCommitCreatesNode) {
  const Sharing& a = base_[0];
  const Sharing& b = base_[1];
  const PlanSpace sa = Enumerate(a);
  const PlanSpace sb = Enumerate(b);
  const auto ea = gp_.EvaluateSpace(sa);
  const auto eb = gp_.EvaluateSpace(sb);
  ASSERT_TRUE(gp_.Commit(1, a, sa, ea, Cheapest(ea), ea.lpc).ok());
  ASSERT_GT(gp_.num_alive_views(), 0u);

  ExpectRefused(2, b, sb, eb, Cheapest(eb));
  // Evaluated again against the grown global plan, it commits.
  const auto again = gp_.EvaluateSpace(sb);
  EXPECT_TRUE(gp_.Commit(2, b, sb, again, Cheapest(again), again.lpc)
                  .ok());
}

TEST_F(CommitTest, StaleAfterRemovalKillsNode) {
  const Sharing& a = base_[0];
  const Sharing& b = base_[1];
  const PlanSpace sa = Enumerate(a);
  const PlanSpace sb = Enumerate(b);
  const auto ea = gp_.EvaluateSpace(sa);
  ASSERT_TRUE(gp_.Commit(1, a, sa, ea, Cheapest(ea), ea.lpc).ok());
  const auto eb = gp_.EvaluateSpace(sb);
  ASSERT_TRUE(gp_.RemoveSharing(1).ok());
  ASSERT_EQ(gp_.num_alive_views(), 0u);

  ExpectRefused(2, b, sb, eb, Cheapest(eb));
}

TEST_F(CommitTest, StaleAfterServerDownAndUp) {
  const Sharing& a = base_[0];
  const PlanSpace sa = Enumerate(a);
  const auto ea = gp_.EvaluateSpace(sa);
  const ServerId other = a.destination() == 3 ? 2 : 3;

  ASSERT_TRUE(world_.cluster->MarkDown(other).ok());
  ExpectRefused(1, a, sa, ea, Cheapest(ea));
  // Liveness is back as it was, but the evaluation predates both flips.
  ASSERT_TRUE(world_.cluster->MarkUp(other).ok());
  ExpectRefused(1, a, sa, ea, Cheapest(ea));

  const auto again = gp_.EvaluateSpace(sa);
  EXPECT_TRUE(gp_.Commit(1, a, sa, again, Cheapest(again), again.lpc)
                  .ok());
}

TEST_F(CommitTest, RefusesIndexOutOfRangeAndMismatchedSpace) {
  // The first base sharing with a choice of plans.
  size_t pick = 0;
  while (pick + 1 < base_.size() &&
         Enumerate(base_[pick]).size() < 2) {
    ++pick;
  }
  const Sharing& a = base_[pick];
  const PlanSpace sa = Enumerate(a);
  ASSERT_GT(sa.size(), 1u);
  const auto ea = gp_.EvaluateSpace(sa);

  ExpectRefused(1, a, sa, ea, sa.size());
  const PlanSpace single =
      PlanSpace::Of(sa.Materialize(Cheapest(ea)), world_.model.get());
  ExpectRefused(1, a, single, ea, 0);

  ASSERT_TRUE(gp_.Commit(1, a, sa, ea, Cheapest(ea), ea.lpc).ok());
  const auto again = gp_.EvaluateSpace(sa);
  EXPECT_EQ(gp_.Commit(1, a, sa, again, 0, again.lpc).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(CommitTest, MakesNoReuseProbe) {
  // Overlapping sharings, so later evaluations probe live views.
  SharingId id = 1;
  for (const Sharing& sharing : {base_[0], base_[1], base_[0]}) {
    const PlanSpace space = Enumerate(sharing);
    const auto eval = gp_.EvaluateSpace(space);
    const uint64_t probes = ReuseProbes();
    const auto rec =
        gp_.Commit(id, sharing, space, eval, Cheapest(eval), eval.lpc);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(ReuseProbes(), probes) << "sharing " << id;
    EXPECT_EQ((*rec)->marginal_cost,
              eval.plans[Cheapest(eval)].marginal_cost);
    ++id;
  }
  EXPECT_GT(ReuseProbes(), 0u);
}

TEST_F(CommitTest, IdenticalHitProbesEachPlanNodeOnce) {
  GreedyPlanner planner(rig_.ctx);
  const Sharing& a = base_[2];
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
