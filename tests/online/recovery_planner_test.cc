// RecoveryPlanner: replanning after server loss. Sharings whose surviving
// alternatives fit migrate (with reported cost deltas); sharings whose
// destination or base-table homes died park with exponential backoff and
// are re-admitted when the machine returns.

#include "online/recovery_planner.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "common/fault.h"
#include "market/rig.h"
#include "testing/dry_run.h"
#include "testing/fact_dim.h"
#include "testing/plans.h"

namespace dsm {
namespace {

TableSet TS(std::initializer_list<TableId> ids) {
  TableSet s;
  for (const TableId id : ids) s.Add(id);
  return s;
}

// Three machines over the Twitter schema. With `spare_server` the nine
// base tables all live on m0/m1, so m2 holds only materialized views
// (destination roots, reuse sources): losing it exercises migration rather
// than a dead base table. Without it, placement is the usual round-robin.
TwitterScenario ThreeMachineTwitter(bool spare_server) {
  TwitterScenario world = MakeTwitterScenario(3);
  if (spare_server) {
    for (TableId t = 0; t < world.catalog->num_tables(); ++t) {
      EXPECT_TRUE(world.cluster->PlaceTable(t, t % 2).ok());
    }
  }
  return world;
}

// Integrates `sharing` under the cheapest feasible plan (Algorithm 2 with
// the GREEDY criterion) and returns its marginal cost.
double AddCheapest(const Rig& rig, SharingId id, const Sharing& sharing) {
  const auto plans = testing_support::EnumerateAll(*rig.enumerator, sharing);
  EXPECT_TRUE(plans.ok());
  const SharingPlan* best = nullptr;
  double best_cost = 0.0;
  for (const SharingPlan& plan : *plans) {
    const auto eval =
        testing_support::DryRun(*rig.global_plan, plan, rig.ctx.model);
    if (!eval.feasible) continue;
    if (best == nullptr || eval.marginal_cost < best_cost) {
      best = &plan;
      best_cost = eval.marginal_cost;
    }
  }
  EXPECT_NE(best, nullptr);
  EXPECT_TRUE(rig.global_plan->AddSharing(id, sharing, *best).ok());
  return best_cost;
}

// A plan whose join is materialized directly at the destination (no copy
// node): the sharing's only working view then sits on the dest server.
const SharingPlan* JoinAtDestinationPlan(const std::vector<SharingPlan>& plans,
                                         ServerId dest) {
  for (const SharingPlan& plan : plans) {
    if (plan.nodes.size() == 3 && plan.root().is_join() &&
        plan.root().server == dest) {
      return &plan;
    }
  }
  return nullptr;
}

TEST(RecoveryPlannerTest, MigratesReuseVictimAndParksDeadDestination) {
  const Scenario world = testing_support::FactDimWorld();
  const Rig rig = MakeRig(world);

  // Sharing 1: FACT ⋈ DIM delivered to m2, joined directly there — the
  // only view of that join in the market lives on m2.
  const Sharing a(TS({0, 1}), {}, /*destination=*/2, "alice");
  const auto a_plans = testing_support::EnumerateAll(*rig.enumerator, a);
  ASSERT_TRUE(a_plans.ok());
  const SharingPlan* a_plan = JoinAtDestinationPlan(*a_plans, 2);
  ASSERT_NE(a_plan, nullptr);
  ASSERT_TRUE(rig.global_plan->AddSharing(1, a, *a_plan).ok());

  // Sharing 2: the same join, filtered, delivered to m0. The cheapest plan
  // reuses m2's view (a residual filter/copy of the tiny join delta beats
  // re-probing the fact table's update stream), so sharing 2's closure
  // reaches onto m2 as well.
  Predicate pred;
  pred.table = 0;
  pred.column = 1;
  pred.op = CompareOp::kLt;
  pred.value = 5000.0;
  const Sharing b(TS({0, 1}), {pred}, /*destination=*/0, "bob");
  const double b_cost_before = AddCheapest(rig, 2, b);
  ASSERT_EQ(rig.global_plan->SharingsTouchingServer(2),
            (std::vector<SharingId>{1, 2}));

  ASSERT_TRUE(world.cluster->MarkDown(2).ok());
  RecoveryPlanner recovery(rig.ctx);
  const auto report = recovery.OnServerDown(2, /*now_tick=*/0);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Sharing 1's destination died with the server: parked. Sharing 2 can be
  // served from m0/m1 alone: migrated, at a higher price (its cheap reuse
  // is gone).
  EXPECT_EQ(report->server, 2u);
  ASSERT_EQ(report->parked, std::vector<SharingId>{1});
  ASSERT_EQ(report->migrated.size(), 1u);
  EXPECT_EQ(report->migrated[0].id, 2u);
  EXPECT_TRUE(report->migrated[0].was_active);
  EXPECT_DOUBLE_EQ(report->migrated[0].cost_before, b_cost_before);
  EXPECT_GT(report->migrated[0].cost_after,
            report->migrated[0].cost_before);

  // The global plan no longer touches the dead machine anywhere.
  EXPECT_TRUE(rig.global_plan->SharingsTouchingServer(2).empty());
  EXPECT_EQ(rig.global_plan->record(1), nullptr);
  const auto closure = rig.global_plan->closure(2);
  ASSERT_TRUE(closure.has_value());
  for (const int node : *closure) {
    EXPECT_NE(rig.global_plan->node_server(node), 2u);
  }
  EXPECT_EQ(recovery.num_parked(), 1u);
  EXPECT_EQ(recovery.parked()[0].id, 1u);
}

TEST(RecoveryPlannerTest, DeadBaseTableHomeParksSharing) {
  const TwitterScenario world = ThreeMachineTwitter(/*spare_server=*/false);
  const Rig rig = MakeRig(world);
  // TWEETS is homed on m1 (round-robin): losing m1 leaves nowhere to read
  // its delta stream from, so the sharing cannot be migrated.
  const Sharing s(TS({world.tables.users, world.tables.tweets}), {},
                  /*destination=*/0, "carol");
  AddCheapest(rig, 7, s);

  ASSERT_TRUE(world.cluster->MarkDown(1).ok());
  RecoveryPlanner recovery(rig.ctx);
  const auto report = recovery.OnServerDown(1, 0);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->parked, std::vector<SharingId>{7});
  EXPECT_TRUE(report->migrated.empty());
  EXPECT_EQ(rig.global_plan->num_sharings(), 0u);

  // The machine returns; a forced retry re-admits the sharing.
  ASSERT_TRUE(world.cluster->MarkUp(1).ok());
  const auto readmitted = recovery.RetryParked(5, /*force=*/true);
  ASSERT_TRUE(readmitted.ok());
  ASSERT_EQ(readmitted->size(), 1u);
  EXPECT_EQ((*readmitted)[0].id, 7u);
  EXPECT_FALSE((*readmitted)[0].was_active);
  EXPECT_EQ(recovery.num_parked(), 0u);
  ASSERT_NE(rig.global_plan->record(7), nullptr);
}

TEST(RecoveryPlannerTest, UnaffectedSharingsKeepTheirPlans) {
  const TwitterScenario world = ThreeMachineTwitter(/*spare_server=*/true);
  const Rig rig = MakeRig(world);
  const Sharing safe(TS({world.tables.curloc, world.tables.loc}), {},
                     /*destination=*/1, "dora");
  AddCheapest(rig, 3, safe);
  const Sharing doomed(TS({world.tables.users, world.tables.tweets}), {},
                       /*destination=*/2, "eve");
  AddCheapest(rig, 4, doomed);

  const double safe_gpc = rig.global_plan->GPC(3);
  ASSERT_TRUE(world.cluster->MarkDown(2).ok());
  RecoveryPlanner recovery(rig.ctx);
  const auto report = recovery.OnServerDown(2, 0);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->parked, std::vector<SharingId>{4});

  // Sharing 3 never touched m2: untouched record, unchanged GPC.
  ASSERT_NE(rig.global_plan->record(3), nullptr);
  EXPECT_DOUBLE_EQ(rig.global_plan->GPC(3), safe_gpc);
}

TEST(RecoveryPlannerTest, ParkedSharingBacksOffExponentially) {
  const TwitterScenario world = ThreeMachineTwitter(/*spare_server=*/true);
  const Rig rig = MakeRig(world);
  const Sharing s(TS({world.tables.users, world.tables.tweets}), {},
                  /*destination=*/2, "frank");
  AddCheapest(rig, 9, s);
  ASSERT_TRUE(world.cluster->MarkDown(2).ok());

  RecoveryPlanner recovery(rig.ctx);
  ASSERT_TRUE(recovery.OnServerDown(2, /*now_tick=*/10).ok());
  ASSERT_EQ(recovery.num_parked(), 1u);
  EXPECT_EQ(recovery.parked()[0].next_retry_tick,
            10 + RecoveryPlanner::kInitialBackoffTicks);

  // Not yet due: no attempt is burned.
  auto r = recovery.RetryParked(10);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  EXPECT_EQ(recovery.parked()[0].attempts, 0);

  // Due retries fail while the server is down; backoff doubles up to the
  // cap, then stays there.
  int64_t backoff = RecoveryPlanner::kInitialBackoffTicks;
  int attempts = 0;
  while (backoff < RecoveryPlanner::kMaxBackoffTicks) {
    const int64_t due = recovery.parked()[0].next_retry_tick;
    ASSERT_TRUE(recovery.RetryParked(due).ok());
    backoff *= 2;
    EXPECT_EQ(recovery.parked()[0].attempts, ++attempts);
    EXPECT_EQ(recovery.parked()[0].backoff_ticks, backoff);
    EXPECT_EQ(recovery.parked()[0].next_retry_tick, due + backoff);
  }
  EXPECT_EQ(backoff, RecoveryPlanner::kMaxBackoffTicks);
  const int64_t due = recovery.parked()[0].next_retry_tick;
  ASSERT_TRUE(recovery.RetryParked(due).ok());
  EXPECT_EQ(recovery.parked()[0].backoff_ticks,
            RecoveryPlanner::kMaxBackoffTicks);  // capped
  EXPECT_EQ(recovery.parked()[0].next_retry_tick,
            due + RecoveryPlanner::kMaxBackoffTicks);

  // Capacity returns mid-backoff: an unforced retry still waits...
  ASSERT_TRUE(world.cluster->MarkUp(2).ok());
  r = recovery.RetryParked(due + 1);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  // ...but a forced one (the recovery event) re-admits immediately.
  r = recovery.RetryParked(due + 1, /*force=*/true);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].id, 9u);
  EXPECT_EQ(recovery.num_parked(), 0u);
  ASSERT_NE(rig.global_plan->record(9), nullptr);
}

// Admits `n` random Twitter sharings under ids 1..n, each with a buyer and
// predicates: everything a moved-from Sharing would lose.
std::map<SharingId, Sharing> AdmitTwitterMix(const TwitterScenario& world,
                                             const Rig& rig, size_t n,
                                             uint64_t seed) {
  TwitterSequenceOptions options;
  options.num_sharings = n;
  options.max_predicates = 2;
  options.frac_with_predicates = 1.0;
  options.seed = seed;
  std::map<SharingId, Sharing> originals;
  SharingId id = 1;
  for (const Sharing& s : GenerateTwitterSequence(
           *world.catalog, world.tables, *world.cluster, options)) {
    Sharing sharing(s.tables(), s.predicates(), s.destination(),
                    "buyer" + std::to_string(id));
    AddCheapest(rig, id, sharing);
    originals.emplace(id, std::move(sharing));
    ++id;
  }
  return originals;
}

// Every admitted id is in exactly one of the global plan and the parked
// queue, and each parked Sharing is the one that was admitted.
void ExpectEachSharingOnce(const Rig& rig,
                           const RecoveryPlanner& recovery,
                           const std::map<SharingId, Sharing>& originals) {
  std::map<SharingId, int> parked_times;
  for (const ParkedSharing& p : recovery.parked()) {
    ++parked_times[p.id];
    const Sharing& want = originals.at(p.id);
    EXPECT_TRUE(p.sharing.ResultKey() == want.ResultKey())
        << "sharing " << p.id;
    EXPECT_EQ(p.sharing.destination(), want.destination());
    EXPECT_EQ(p.sharing.buyer(), want.buyer());
  }
  for (const auto& [id, sharing] : originals) {
    const int in_plan = rig.global_plan->record(id) != nullptr ? 1 : 0;
    EXPECT_EQ(in_plan + parked_times[id], 1) << "sharing " << id;
  }
}

TEST(RecoveryPlannerTest, ErrorMidFailoverParksTheRemainingVictims) {
  const TwitterScenario world = ThreeMachineTwitter(/*spare_server=*/false);
  const Rig rig = MakeRig(world);
  const auto originals = AdmitTwitterMix(world, rig, 24, 3);
  const size_t victims = rig.global_plan->SharingsTouchingServer(1).size();
  ASSERT_GE(victims, 4u);

  ASSERT_TRUE(world.cluster->MarkDown(1).ok());
  RecoveryPlanner recovery(rig.ctx);
  {
    // The third victim's replan fails after two were handled.
    ScopedFault fault("recovery/replan", FaultSpec{1.0, 2, 1});
    const auto report = recovery.OnServerDown(1, /*now_tick=*/0);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kInternal);
  }
  EXPECT_GE(recovery.num_parked(), victims - 2);
  ExpectEachSharingOnce(rig, recovery, originals);

  // Nothing was lost: once the machine returns every sharing is served.
  ASSERT_TRUE(world.cluster->MarkUp(1).ok());
  ASSERT_TRUE(recovery.RetryParked(1, /*force=*/true).ok());
  EXPECT_EQ(recovery.num_parked(), 0u);
  EXPECT_EQ(rig.global_plan->num_sharings(), originals.size());
}

TEST(RecoveryPlannerTest, FailedFailoverReportsWhatItDid) {
  const Scenario world = testing_support::FactDimWorld();
  const Rig rig = MakeRig(world);
  // Sharing 1 is FACT ⋈ DIM joined on m2; sharings 2 and 3 filter it for
  // m0 and m1 by reusing m2's view, so all three are victims of m2.
  const Sharing a(TS({0, 1}), {}, /*destination=*/2, "alice");
  const auto a_plans = testing_support::EnumerateAll(*rig.enumerator, a);
  ASSERT_TRUE(a_plans.ok());
  const SharingPlan* a_plan = JoinAtDestinationPlan(*a_plans, 2);
  ASSERT_NE(a_plan, nullptr);
  ASSERT_TRUE(rig.global_plan->AddSharing(1, a, *a_plan).ok());
  Predicate pred;
  pred.table = 0;
  pred.column = 1;
  pred.op = CompareOp::kLt;
  pred.value = 5000.0;
  const double b_cost_before =
      AddCheapest(rig, 2, Sharing(TS({0, 1}), {pred}, 0, "bob"));
  pred.value = 4000.0;
  AddCheapest(rig, 3, Sharing(TS({0, 1}), {pred}, 1, "carol"));
  ASSERT_EQ(rig.global_plan->SharingsTouchingServer(2),
            (std::vector<SharingId>{1, 2, 3}));

  ASSERT_TRUE(world.cluster->MarkDown(2).ok());
  RecoveryPlanner recovery(rig.ctx);
  RecoveryReport report;
  {
    // Sharing 1 parks, sharing 2 migrates, sharing 3's replan fails.
    ScopedFault fault("recovery/replan", FaultSpec{1.0, 2, 1});
    EXPECT_EQ(recovery.OnServerDown(2, /*now_tick=*/0, &report).code(),
              StatusCode::kInternal);
  }
  // The report keeps what the failover did before the error.
  EXPECT_EQ(report.server, 2u);
  ASSERT_EQ(report.migrated.size(), 1u);
  EXPECT_EQ(report.migrated[0].id, 2u);
  EXPECT_DOUBLE_EQ(report.migrated[0].cost_before, b_cost_before);
  EXPECT_EQ(report.parked, (std::vector<SharingId>{1, 3}));
  EXPECT_DOUBLE_EQ(report.cost_after, rig.global_plan->TotalCost());
  ASSERT_EQ(recovery.num_parked(), 2u);
  EXPECT_EQ(recovery.parked()[0].id, 1u);
  EXPECT_EQ(recovery.parked()[1].id, 3u);
  EXPECT_EQ(rig.global_plan->sharing_ids(), std::vector<SharingId>{2});
}

TEST(RecoveryPlannerTest, ErrorMidRetryLeavesTheQueueAsItWas) {
  const TwitterScenario world = ThreeMachineTwitter(/*spare_server=*/false);
  const Rig rig = MakeRig(world);
  const auto originals = AdmitTwitterMix(world, rig, 24, 5);
  ASSERT_TRUE(world.cluster->MarkDown(1).ok());
  RecoveryPlanner recovery(rig.ctx);
  ASSERT_TRUE(recovery.OnServerDown(1, /*now_tick=*/0).ok());
  ASSERT_GE(recovery.num_parked(), 4u);
  // One unforced retry while the machine is still down, so the queue
  // carries non-initial attempts and backoffs into the failing batch.
  ASSERT_TRUE(recovery.RetryParked(1).ok());

  const std::vector<ParkedSharing> before = recovery.parked();
  const std::vector<SharingId> served_before = rig.global_plan->sharing_ids();
  ASSERT_TRUE(world.cluster->MarkUp(1).ok());
  for (const int fail_after : {0, 2, static_cast<int>(before.size()) - 1}) {
    ScopedFault fault("recovery/replan",
                      FaultSpec{1.0, fail_after, 1});
    const auto readmitted = recovery.RetryParked(2, /*force=*/true);
    ASSERT_FALSE(readmitted.ok());
    EXPECT_EQ(readmitted.status().code(), StatusCode::kInternal);

    ASSERT_EQ(recovery.parked().size(), before.size());
    for (size_t i = 0; i < before.size(); ++i) {
      const ParkedSharing& p = recovery.parked()[i];
      EXPECT_EQ(p.id, before[i].id);
      EXPECT_EQ(p.attempts, before[i].attempts);
      EXPECT_EQ(p.backoff_ticks, before[i].backoff_ticks);
      EXPECT_EQ(p.next_retry_tick, before[i].next_retry_tick);
      EXPECT_DOUBLE_EQ(p.cost_before, before[i].cost_before);
    }
    EXPECT_EQ(rig.global_plan->sharing_ids(), served_before);
    ExpectEachSharingOnce(rig, recovery, originals);
  }

  // A batch that plans but cannot be served (its `readmit` fails) is
  // undone the same way.
  std::vector<SharingId> offered;
  const auto refused = recovery.RetryParked(
      2, /*force=*/true, [&](const std::vector<MigratedSharing>& batch) {
        for (const MigratedSharing& m : batch) offered.push_back(m.id);
        EXPECT_EQ(rig.global_plan->num_sharings(),
                  served_before.size() + batch.size());
        return Status::Internal("views not revived");
      });
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInternal);
  EXPECT_EQ(offered.size(), before.size());
  ASSERT_EQ(recovery.parked().size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(recovery.parked()[i].id, before[i].id);
    EXPECT_EQ(recovery.parked()[i].attempts, before[i].attempts);
    EXPECT_EQ(recovery.parked()[i].next_retry_tick,
              before[i].next_retry_tick);
  }
  EXPECT_EQ(rig.global_plan->sharing_ids(), served_before);
  ExpectEachSharingOnce(rig, recovery, originals);

  // The batch is retried cleanly: no AlreadyExists from a half-applied
  // earlier attempt, and every parked sharing comes back.
  const auto readmitted = recovery.RetryParked(3, /*force=*/true);
  ASSERT_TRUE(readmitted.ok()) << readmitted.status().ToString();
  EXPECT_EQ(readmitted->size(), before.size());
  EXPECT_EQ(recovery.num_parked(), 0u);
  ExpectEachSharingOnce(rig, recovery, originals);
}

}  // namespace
}  // namespace dsm
