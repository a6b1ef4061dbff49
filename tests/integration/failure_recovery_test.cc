// Fault-tolerance integration: a server dies mid-simulation while buyers'
// views are being maintained, the market migrates or parks the affected
// sharings and keeps every surviving view verifiable; afterwards a crash
// restart replays snapshot + journal into the same global plan DAG the
// provider had committed before the failure.

#include <gtest/gtest.h>

#include <memory>

#include "common/fault.h"
#include "cost/default_cost_model.h"
#include "io/plan_journal.h"
#include "market/rig.h"
#include "market/simulation.h"
#include "online/managed_risk.h"
#include "online/recovery_planner.h"

namespace dsm {
namespace {

// Two global plans are the same DAG for our purposes when they serve the
// same sharings, with identical individual plans, at identical cost.
void ExpectSamePlan(const GlobalPlan& a, const GlobalPlan& b) {
  EXPECT_NEAR(a.TotalCost(), b.TotalCost(), 1e-9);
  EXPECT_EQ(a.num_alive_views(), b.num_alive_views());
  ASSERT_EQ(a.sharing_ids(), b.sharing_ids());
  for (const SharingId id : a.sharing_ids()) {
    const auto* ra = a.record(id);
    const auto* rb = b.record(id);
    ASSERT_NE(ra, nullptr);
    ASSERT_NE(rb, nullptr);
    EXPECT_EQ(ra->plan, rb->plan);
    EXPECT_NEAR(a.GPC(id), b.GPC(id), 1e-9);
    EXPECT_NEAR(ra->marginal_cost, rb->marginal_cost, 1e-9);
  }
}

TEST(FailureRecoveryTest, ServerDeathMidRunMigratesAndRestartRestores) {
  const TwitterScenario world = MakeTwitterScenario(3);
  const Rig rig = MakeRig(world);
  ManagedRiskPlanner planner(rig.ctx);
  PlanJournal journal;
  ASSERT_TRUE(journal.Open().ok());

  // Buyers purchase four sharings; every committed choice is journaled and
  // its view registered for live maintenance.
  MarketSimulation sim(world.catalog.get(), /*seed=*/20140622,
                       /*domain_compression=*/1e-4);
  const auto base = TwitterBaseSharings(world.tables, *world.cluster);
  for (size_t i = 0; i < 4; ++i) {
    const auto choice = planner.ProcessSharing(base[i]);
    ASSERT_TRUE(choice.ok()) << choice.status().ToString();
    ASSERT_TRUE(journal.Append(choice->id, base[i], choice->plan).ok());
    ASSERT_TRUE(sim.AddBuyerView(choice->id, base[i].ResultKey()).ok());
  }
  // The provider's committed state, before any machine trouble.
  const auto pre_failure =
      MarketStateToString(*world.catalog, *world.cluster,
                          rig.global_plan.get());
  ASSERT_TRUE(pre_failure.ok());
  const auto snapshot =
      MarketStateToString(*world.catalog, *world.cluster, nullptr);
  ASSERT_TRUE(snapshot.ok());

  // m1 dies at tick 1, mid-stream.
  RecoveryPlanner recovery(rig.ctx);
  sim.AttachFaultDomain(world.cluster.get(), &recovery);
  ASSERT_TRUE(sim.ScheduleServerFailure(1, 1).ok());
  ASSERT_TRUE(sim.Run(/*ticks=*/2, /*scale=*/0.03).ok());

  const auto& stats = sim.recovery_stats();
  EXPECT_EQ(stats.failures, 1);
  // S2's destination is m1 and three base tables are homed there: at least
  // one sharing must have been hit, and none may still touch the corpse.
  EXPECT_GT(stats.migrated + stats.parked, 0);
  EXPECT_GE(stats.parked, 1);
  EXPECT_EQ(sim.parked_sharings(), static_cast<size_t>(stats.parked));
  EXPECT_TRUE(rig.global_plan->SharingsTouchingServer(1).empty());
  // Every surviving view still matches a from-scratch recomputation.
  auto verified = sim.VerifyViews();
  ASSERT_TRUE(verified.ok());
  EXPECT_TRUE(*verified);

  // The machine returns at tick 2: parked sharings are re-admitted and
  // their views recomputed.
  ASSERT_TRUE(sim.ScheduleServerRecovery(2, 1).ok());
  ASSERT_TRUE(sim.Run(/*ticks=*/2, /*scale=*/0.03).ok());
  EXPECT_EQ(sim.recovery_stats().recoveries, 1);
  EXPECT_EQ(sim.recovery_stats().readmitted, stats.parked);
  EXPECT_EQ(sim.parked_sharings(), 0u);
  verified = sim.VerifyViews();
  ASSERT_TRUE(verified.ok());
  EXPECT_TRUE(*verified);

  // Crash restart: replaying snapshot + journal on fresh machines yields
  // exactly the global plan DAG that was committed before the failure.
  const auto recovered = RecoverMarketState(*snapshot, journal.contents());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered->sharings.size(), 4u);
  DefaultCostModel recovered_model(&recovered->catalog,
                                   &recovered->cluster);
  GlobalPlan restored(&recovered->cluster, &recovered_model);
  ASSERT_TRUE(RestoreGlobalPlan(*recovered, &restored).ok());

  const auto reference_state = MarketStateFromString(*pre_failure);
  ASSERT_TRUE(reference_state.ok());
  DefaultCostModel reference_model(&reference_state->catalog,
                                   &reference_state->cluster);
  GlobalPlan reference(&reference_state->cluster, &reference_model);
  ASSERT_TRUE(RestoreGlobalPlan(*reference_state, &reference).ok());
  ExpectSamePlan(restored, reference);
}

TEST(FailureRecoveryTest, CrashDuringAppendLosesOnlyTheTornRecord) {
  const TwitterScenario world = MakeTwitterScenario(3);
  const Rig rig = MakeRig(world);
  ManagedRiskPlanner planner(rig.ctx);
  PlanJournal journal;
  ASSERT_TRUE(journal.Open().ok());
  const auto snapshot =
      MarketStateToString(*world.catalog, *world.cluster, nullptr);
  ASSERT_TRUE(snapshot.ok());

  TwitterSequenceOptions options;
  options.num_sharings = 6;
  options.max_predicates = 1;
  options.seed = 41;
  const auto sequence = GenerateTwitterSequence(*world.catalog, world.tables,
                                                *world.cluster, options);
  std::vector<PlanChoice> committed;
  for (size_t i = 0; i < 5; ++i) {
    const auto choice = planner.ProcessSharing(sequence[i]);
    ASSERT_TRUE(choice.ok());
    ASSERT_TRUE(
        journal.Append(choice->id, sequence[i], choice->plan).ok());
    committed.push_back(*choice);
  }

  // The process dies halfway through journaling the sixth commit.
  const auto last = planner.ProcessSharing(sequence[5]);
  ASSERT_TRUE(last.ok());
  {
    ScopedFault crash("io/journal-append");
    EXPECT_EQ(journal.Append(last->id, sequence[5], last->plan).code(),
              StatusCode::kInternal);
  }

  JournalReplay stats;
  const auto recovered =
      RecoverMarketState(*snapshot, journal.contents(), &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(stats.records_recovered, 5u);
  EXPECT_TRUE(stats.tail_dropped);
  EXPECT_GT(stats.bytes_dropped, 0u);
  ASSERT_EQ(recovered->sharings.size(), 5u);

  // The restored DAG is identical to the pre-crash plan for every fully
  // journaled sharing: same plan, same GPC, same marginal cost.
  DefaultCostModel recovered_model(&recovered->catalog,
                                   &recovered->cluster);
  GlobalPlan restored(&recovered->cluster, &recovered_model);
  ASSERT_TRUE(RestoreGlobalPlan(*recovered, &restored).ok());
  EXPECT_EQ(restored.num_sharings(), 5u);
  for (const PlanChoice& choice : committed) {
    const auto* rec = restored.record(choice.id);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->plan, choice.plan);
    EXPECT_NEAR(rec->marginal_cost, choice.marginal_cost, 1e-9);
    EXPECT_NEAR(restored.GPC(choice.id), rig.global_plan->GPC(choice.id),
                1e-9);
  }
  // The torn sixth record is gone — lost, not corrupted.
  EXPECT_EQ(restored.record(last->id), nullptr);
}

}  // namespace
}  // namespace dsm
