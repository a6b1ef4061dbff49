// CostingSession: attributed costs drift as new sharings arrive but never
// exceed LPC (the paper's Section 5 stability argument), and every
// refresh recovers the then-current global cost.

#include "costing/costing_session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "market/rig.h"
#include "obs/trace.h"
#include "online/managed_risk.h"
#include "workload/adversarial.h"

namespace dsm {
namespace {

TEST(CostingSessionTest, RefreshPerArrivalTracksHistory) {
  const Scenario sc = MakeGreedyTrap(8, 10.0, 10.0, 1e-3);
  auto rig = MakeRig(sc);
  ManagedRiskPlanner planner(rig.ctx);
  LpcCalculator lpc(rig.enumerator.get(), rig.ctx.model);
  CostingSession session(rig.global_plan.get(), &lpc);

  for (const Sharing& sharing : sc.sharings) {
    ASSERT_TRUE(planner.ProcessSharing(sharing).ok());
    const auto snapshot = session.Refresh();
    ASSERT_TRUE(snapshot.ok());
    // Criterion (5): every refresh recovers the current global cost.
    double total = 0.0;
    for (const auto& [id, ac] : snapshot->ac) total += ac;
    EXPECT_NEAR(total, rig.global_plan->TotalCost(), 1e-6);
    // Criterion (2) whenever satisfiable; during the transient where the
    // planner's risk exceeds Σ LPC (Lemma 5.2), the fallback charges a
    // uniform overrun factor instead.
    if (snapshot->criteria_satisfied) {
      for (const auto& [id, ac] : snapshot->ac) {
        EXPECT_LE(ac, snapshot->lpc.at(id) * (1 + 1e-9) + 1e-9);
      }
    } else {
      const double overrun =
          snapshot->global_cost / (total > 0 ? total : 1.0);
      EXPECT_NEAR(overrun, 1.0, 1e-6);  // recovery is still exact
    }
  }
  EXPECT_EQ(session.num_refreshes(), sc.sharings.size());
  // The paper's stability bound: no AC ever grew by more than ~its LPC.
  EXPECT_LE(session.MaxAcIncreaseFractionOfLpc(), 1.1);
}

// A refresh's time splits into building the FAIRCOST problem (the
// containment DAG's update nested in it) and FAIRCOST itself.
TEST(CostingSessionTest, RefreshSpansSplitBuildDagAndFairCost) {
  const Scenario sc = MakeGreedyTrap(4, 10.0, 10.0, 1e-3);
  auto rig = MakeRig(sc);
  ManagedRiskPlanner planner(rig.ctx);
  LpcCalculator lpc(rig.enumerator.get(), rig.ctx.model);
  CostingSession session(rig.global_plan.get(), &lpc);
  for (const Sharing& sharing : sc.sharings) {
    ASSERT_TRUE(planner.ProcessSharing(sharing).ok());
  }
  obs::Tracer::Global().Clear();
  ASSERT_TRUE(session.Refresh().ok());
  const std::vector<obs::TraceSpan> spans = obs::Tracer::Global().spans();
  const auto find = [&](const char* name) {
    const obs::TraceSpan* found = nullptr;
    int count = 0;
    for (const obs::TraceSpan& span : spans) {
      if (span.name != name) continue;
      found = &span;
      ++count;
    }
    EXPECT_EQ(count, 1) << name;
    return found;
  };
  const obs::TraceSpan* build = find("costing/build_problem");
  const obs::TraceSpan* dag = find("costing/dag_update");
  const obs::TraceSpan* faircost = find("costing/faircost");
  ASSERT_NE(build, nullptr);
  ASSERT_NE(dag, nullptr);
  ASSERT_NE(faircost, nullptr);
  EXPECT_EQ(dag->parent_id, build->id);
  EXPECT_NE(faircost->parent_id, build->id);
}

TEST(CostingSessionTest, AcsChangeWhenReuseAppears) {
  // The first sharing pays for everything; once a second identical
  // sharing arrives, the cost is split — the first sharing's AC drops.
  const Scenario sc = MakeGreedyTrap(2, 10.0, 10.0, 1e-3);
  auto rig = MakeRig(sc);
  ManagedRiskPlanner planner(rig.ctx);
  LpcCalculator lpc(rig.enumerator.get(), rig.ctx.model);
  CostingSession session(rig.global_plan.get(), &lpc);

  ASSERT_TRUE(planner.ProcessSharing(sc.sharings[0]).ok());
  ASSERT_TRUE(session.Refresh().ok());
  const double first_alone = session.CurrentAc(1);

  // The same query again (identical): the pie is split two ways.
  ASSERT_TRUE(planner.ProcessSharing(sc.sharings[0]).ok());
  ASSERT_TRUE(session.Refresh().ok());
  const double first_shared = session.CurrentAc(1);
  const double second_shared = session.CurrentAc(2);
  EXPECT_LT(first_shared, first_alone);
  EXPECT_NEAR(first_shared, second_shared, 1e-9);
}

TEST(CostingSessionTest, BoundedHistoryKeepsTheRunningDrift) {
  // Arrivals interleaved with removals. The test keeps its own copy of
  // every Refresh() result and computes the drift statistic over the full
  // history; the session keeps only the latest snapshot.
  const Scenario sc = MakeGreedyTrap(10, 10.0, 10.0, 1e-3);
  auto rig = MakeRig(sc);
  ManagedRiskPlanner planner(rig.ctx);
  LpcCalculator lpc(rig.enumerator.get(), rig.ctx.model);
  CostingSession session(rig.global_plan.get(), &lpc);
  EXPECT_EQ(session.latest(), nullptr);

  std::vector<CostingSession::Snapshot> full;
  const auto refresh = [&] {
    const auto snapshot = session.Refresh();
    ASSERT_TRUE(snapshot.ok());
    full.push_back(*snapshot);
    EXPECT_LE(session.history().size(), 1u);
    ASSERT_NE(session.latest(), nullptr);
    EXPECT_EQ(session.latest()->ac, snapshot->ac);
    EXPECT_EQ(session.num_refreshes(), full.size());
  };
  std::vector<SharingId> ids;
  for (size_t i = 0; i < sc.sharings.size(); ++i) {
    const auto choice = planner.ProcessSharing(sc.sharings[i]);
    ASSERT_TRUE(choice.ok());
    ids.push_back(choice->id);
    refresh();
    if (i % 3 == 2) {  // a buyer leaves; the others' ACs rise
      ASSERT_TRUE(rig.global_plan->RemoveSharing(ids[i - 1]).ok());
      refresh();
    }
  }

  double expected = 0.0;
  for (size_t r = 1; r < full.size(); ++r) {
    for (const auto& [id, ac] : full[r].ac) {
      const auto prev = full[r - 1].ac.find(id);
      if (prev == full[r - 1].ac.end()) continue;
      const double sharing_lpc = full[r].lpc.at(id);
      if (sharing_lpc <= 0.0) continue;
      expected = std::max(expected, (ac - prev->second) / sharing_lpc);
    }
  }
  EXPECT_GT(expected, 0.0);  // removals did raise some AC
  EXPECT_EQ(session.MaxAcIncreaseFractionOfLpc(), expected);
  EXPECT_EQ(session.num_refreshes(), full.size());
  EXPECT_EQ(session.history().size(), 1u);
}

TEST(CostingSessionTest, CurrentAcUnknownBeforeRefresh) {
  const Scenario sc = MakeGreedyTrap(1);
  auto rig = MakeRig(sc);
  LpcCalculator lpc(rig.enumerator.get(), rig.ctx.model);
  CostingSession session(rig.global_plan.get(), &lpc);
  EXPECT_DOUBLE_EQ(session.CurrentAc(1), -1.0);
}

}  // namespace
}  // namespace dsm
