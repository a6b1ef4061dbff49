// Admission-time LPC against its oracle. Every planner path that
// enumerates a sharing's plans records the sharing's LPC (the cheapest
// standalone plan) from the dry runs it already made; costing reads it
// instead of enumerating again. Checked exactly (EXPECT_EQ) against
// LpcCalculator, the from-scratch enumeration:
//   - a dry run's standalone_cost equals PlanCost bit for bit, on
//     Twitter and star sharings under both cost models;
//   - the LPC recorded by each admission path (OnlinePlanner's full and
//     identical paths, RecoveryPlanner migration and re-admission,
//     Replanner, SpeculativeViewAdvisor) equals LpcCalculator::Lpc;
//   - a restored global plan carries no LPC and bills identically through
//     the LpcCalculator fallback;
//   - a planner-driven costing session never enumerates for an LPC
//     (dsm.costing.lpc_enumerations stays 0).

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "cost/table_cost_model.h"
#include "costing/costing_session.h"
#include "costing/fair_cost.h"
#include "costing/lpc.h"
#include "costing/savings.h"
#include "io/market_io.h"
#include "market/rig.h"
#include "obs/metrics.h"
#include "online/greedy.h"
#include "online/managed_risk.h"
#include "online/recovery_planner.h"
#include "online/replanner.h"
#include "online/speculative.h"
#include "testing/dry_run.h"
#include "testing/plans.h"
#include "workload/adversarial.h"

namespace dsm {
namespace {

uint64_t LpcEnumerations() {
  return obs::MetricsRegistry::Global()
      .GetCounter("dsm.costing.lpc_enumerations")
      ->value();
}

// `n` random sharings over the Twitter schema (up to two predicates) or
// the star schema (a fact and up to three dimensions), placed round-robin
// on four machines.
Scenario MakeWorld(bool star, bool table_driven, size_t n, uint64_t seed) {
  std::optional<TableDrivenCostModel::Options> costs;
  if (table_driven) costs = TableDrivenCostModel::Options{.seed = seed};
  if (star) {
    StarScenario world = MakeStarScenario(1, 20, 4, costs);
    StarSequenceOptions options;
    options.num_sharings = n;
    options.max_tables = 4;
    options.seed = seed;
    world.sharings =
        GenerateStarSharings(world.schema, *world.cluster, options);
    return world;
  }
  TwitterScenario world = MakeTwitterScenario(4, costs);
  TwitterSequenceOptions options;
  options.num_sharings = n;
  options.max_predicates = 2;
  options.seed = seed;
  world.sharings = GenerateTwitterSequence(*world.catalog, world.tables,
                                           *world.cluster, options);
  return world;
}

// A beam keeps the plan count small.
Rig MakeBeamRig(const Scenario& world) {
  return MakeRig(world, EnumeratorOptions{.per_subset_cap = 6});
}

// The recorded LPC of sharing `id` equals a from-scratch enumeration's.
void ExpectRecordedLpcExact(const PlannerContext& ctx, SharingId id) {
  const GlobalPlan::SharingRecord* rec = ctx.global_plan->record(id);
  ASSERT_NE(rec, nullptr) << id;
  ASSERT_TRUE(rec->lpc.has_value()) << id;
  LpcCalculator oracle(ctx.enumerator, ctx.model);
  const Result<double> lpc = oracle.Lpc(rec->sharing);
  ASSERT_TRUE(lpc.ok()) << lpc.status().ToString();
  EXPECT_EQ(*rec->lpc, *lpc) << id;
}

TEST(AdmissionLpcTest, StandaloneCostIsPlanCost) {
  size_t plans_checked = 0;
  for (const bool star : {false, true}) {
    for (const bool table_driven : {false, true}) {
      const Scenario world = MakeWorld(star, table_driven, 30, 11);
      const Rig rig = MakeBeamRig(world);
      GreedyPlanner planner(rig.ctx);
      // Half the sharings are admitted first, so the dry runs below reuse
      // views; standalone cost ignores reuse either way.
      for (size_t i = 0; i < 15; ++i) {
        (void)planner.ProcessSharing(world.sharings[i]);
      }
      ASSERT_GT(rig.global_plan->num_alive_views(), 0u);
      for (size_t i = 15; i < world.sharings.size(); ++i) {
        const auto plans =
            testing_support::EnumerateAll(*rig.enumerator, world.sharings[i]);
        ASSERT_TRUE(plans.ok()) << plans.status().ToString();
        for (const SharingPlan& plan : *plans) {
          EXPECT_EQ(testing_support::DryRun(*rig.global_plan, plan,
                                            world.model.get())
                        .standalone_cost,
                    PlanCost(plan, world.model.get()));
          ++plans_checked;
        }
      }
    }
  }
  EXPECT_GT(plans_checked, 400u);
}

TEST(AdmissionLpcTest, PlannerPathsRecordTheEnumeratedLpc) {
  const Scenario world =
      MakeWorld(/*star=*/false, /*table_driven=*/false, 24, 5);
  const Rig rig = MakeBeamRig(world);
  ManagedRiskPlanner planner(rig.ctx);

  // OnlinePlanner: the full path, then identical twins via the fast path.
  size_t identical = 0;
  for (size_t i = 0; i < world.sharings.size() + 6; ++i) {
    const Sharing& sharing = world.sharings[i % world.sharings.size()];
    const auto choice = planner.ProcessSharing(sharing);
    if (!choice.ok()) continue;
    if (choice->reused_identical) ++identical;
    ExpectRecordedLpcExact(rig.ctx, choice->id);
  }
  EXPECT_GT(identical, 0u);

  // RecoveryPlanner: migration off a dead server, then re-admission.
  RecoveryPlanner recovery(rig.ctx);
  size_t replanned = 0;
  for (const ServerId lost : {ServerId{1}, ServerId{2}}) {
    ASSERT_TRUE(world.cluster->MarkDown(lost).ok());
    const auto down = recovery.OnServerDown(lost, /*now_tick=*/0);
    ASSERT_TRUE(down.ok()) << down.status().ToString();
    for (const MigratedSharing& m : down->migrated) {
      ExpectRecordedLpcExact(rig.ctx, m.id);
      ++replanned;
    }
    ASSERT_TRUE(world.cluster->MarkUp(lost).ok());
    const auto readmitted = recovery.RetryParked(1, /*force=*/true);
    ASSERT_TRUE(readmitted.ok()) << readmitted.status().ToString();
    for (const MigratedSharing& m : *readmitted) {
      ExpectRecordedLpcExact(rig.ctx, m.id);
      ++replanned;
    }
  }
  EXPECT_GT(replanned, 0u);

  // Replanner: every sharing is removed and re-integrated.
  Replanner replanner(rig.ctx);
  ASSERT_TRUE(replanner.Improve().ok());
  for (const SharingId id : rig.global_plan->sharing_ids()) {
    ExpectRecordedLpcExact(rig.ctx, id);
  }
}

TEST(AdmissionLpcTest, SpeculativeViewsRecordTheEnumeratedLpc) {
  // The stateful TableDrivenCostModel drives the greedy trap.
  const Scenario sc = MakeGreedyTrap(12, 100.0, 10.0, 1e-3);
  auto rig = MakeRig(sc);
  ManagedRiskPlanner planner(rig.ctx);
  SpeculativeOptions options;
  options.regret_multiple = 0.5;
  SpeculativeViewAdvisor advisor(&planner, options);
  for (size_t i = 0; i < 6; ++i) {
    const auto choice = planner.ProcessSharing(sc.sharings[i]);
    ASSERT_TRUE(choice.ok());
    ExpectRecordedLpcExact(rig.ctx, choice->id);
    ASSERT_TRUE(advisor.MaybeSpeculate().ok());
  }
  ASSERT_GE(advisor.num_views(), 1u);
  for (size_t v = 0; v < advisor.num_views(); ++v) {
    ExpectRecordedLpcExact(rig.ctx,
                           SpeculativeViewAdvisor::kSpeculativeIdBase + v);
  }
}

TEST(AdmissionLpcTest, RestoredPlanBillsIdenticallyThroughTheFallback) {
  const Scenario world =
      MakeWorld(/*star=*/false, /*table_driven=*/false, 16, 23);
  const Rig rig = MakeBeamRig(world);
  ManagedRiskPlanner planner(rig.ctx);
  for (const Sharing& sharing : world.sharings) {
    (void)planner.ProcessSharing(sharing);
  }
  ASSERT_GT(rig.global_plan->num_sharings(), 0u);

  const auto text = MarketStateToString(*world.catalog, *world.cluster,
                                        rig.global_plan.get());
  ASSERT_TRUE(text.ok());
  const auto state = MarketStateFromString(*text);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  GlobalPlan restored(world.cluster.get(), world.model.get());
  ASSERT_TRUE(RestoreGlobalPlan(*state, &restored).ok());
  for (const auto& [id, rec] : restored.records()) {
    EXPECT_FALSE(rec.lpc.has_value()) << id;
  }

  LpcCalculator lpc(rig.enumerator.get(), world.model.get());
  const uint64_t before = LpcEnumerations();
  const auto live = BuildFairCostProblem(*rig.global_plan, &lpc);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(LpcEnumerations(), before);  // every live record has its LPC
  const auto replayed = BuildFairCostProblem(restored, &lpc);
  ASSERT_TRUE(replayed.ok());
  EXPECT_GT(LpcEnumerations(), before);  // restored records enumerate

  ASSERT_EQ(live->ids, replayed->ids);
  EXPECT_EQ(live->global_cost, replayed->global_cost);
  for (size_t i = 0; i < live->entries.size(); ++i) {
    EXPECT_EQ(live->entries[i].lpc, replayed->entries[i].lpc);
    EXPECT_EQ(live->entries[i].gpc, replayed->entries[i].gpc);
    EXPECT_EQ(live->entries[i].saving_term, replayed->entries[i].saving_term);
  }
  FairCost::Options options;
  options.lpc_overrun_fallback = true;
  const auto live_bill =
      FairCost::Compute(live->entries, live->global_cost, options);
  const auto replayed_bill =
      FairCost::Compute(replayed->entries, replayed->global_cost, options);
  ASSERT_TRUE(live_bill.ok());
  ASSERT_TRUE(replayed_bill.ok());
  EXPECT_EQ(live_bill->ac, replayed_bill->ac);
}

TEST(AdmissionLpcTest, PlannerDrivenSessionNeverEnumeratesForLpc) {
  const Scenario world =
      MakeWorld(/*star=*/false, /*table_driven=*/false, 30, 3);
  const Rig rig = MakeBeamRig(world);
  ManagedRiskPlanner planner(rig.ctx);
  RecoveryPlanner recovery(rig.ctx);
  LpcCalculator lpc(rig.enumerator.get(), world.model.get());
  CostingSession session(rig.global_plan.get(), &lpc);
  const uint64_t before = LpcEnumerations();

  // Arrivals, with every fifth sharing arriving twice (identical twins).
  std::vector<SharingId> admitted;
  size_t identical = 0;
  for (size_t i = 0; i < world.sharings.size(); ++i) {
    for (int copy = 0; copy < (i % 5 == 0 ? 2 : 1); ++copy) {
      const auto choice = planner.ProcessSharing(world.sharings[i]);
      if (!choice.ok()) continue;
      admitted.push_back(choice->id);
      if (choice->reused_identical) ++identical;
      ASSERT_TRUE(session.Refresh().ok());
    }
  }
  EXPECT_GT(identical, 0u);

  // Removals.
  for (size_t i = 0; i < admitted.size(); i += 4) {
    ASSERT_TRUE(rig.global_plan->RemoveSharing(admitted[i]).ok());
    ASSERT_TRUE(session.Refresh().ok());
  }

  // A server failure, then re-admission of the parked sharings.
  constexpr ServerId kLost = 1;
  ASSERT_TRUE(world.cluster->MarkDown(kLost).ok());
  const auto down = recovery.OnServerDown(kLost, /*now_tick=*/0);
  ASSERT_TRUE(down.ok()) << down.status().ToString();
  ASSERT_TRUE(session.Refresh().ok());
  ASSERT_TRUE(world.cluster->MarkUp(kLost).ok());
  const auto readmitted = recovery.RetryParked(1, /*force=*/true);
  ASSERT_TRUE(readmitted.ok()) << readmitted.status().ToString();
  EXPECT_GT(down->migrated.size() + readmitted->size(), 0u);
  ASSERT_TRUE(session.Refresh().ok());

  EXPECT_EQ(LpcEnumerations() - before, 0u);
}

}  // namespace
}  // namespace dsm
