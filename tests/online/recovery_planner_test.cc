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
#include "cost/default_cost_model.h"
#include "testing/dry_run.h"
#include "testing/plans.h"
#include "workload/twitter.h"

namespace dsm {
namespace {

TableSet TS(std::initializer_list<TableId> ids) {
  TableSet s;
  for (const TableId id : ids) s.Add(id);
  return s;
}

struct RecoveryRig {
  Catalog catalog;
  Cluster cluster;
  TwitterTables tables;
  std::unique_ptr<JoinGraph> graph;
  std::unique_ptr<DefaultCostModel> model;
  std::unique_ptr<PlanEnumerator> enumerator;
  std::unique_ptr<GlobalPlan> gp;
  PlannerContext ctx;
};

// Three machines over the Twitter schema. With `spare_server` the nine
// base tables all live on m0/m1, so m2 holds only materialized views
// (destination roots, reuse sources): losing it exercises migration rather
// than a dead base table. Without it, placement is the usual round-robin.
std::unique_ptr<RecoveryRig> MakeRecoveryRig(bool spare_server) {
  auto rig = std::make_unique<RecoveryRig>();
  const auto tables = BuildTwitterCatalog(&rig->catalog);
  EXPECT_TRUE(tables.ok());
  rig->tables = *tables;
  for (int i = 0; i < 3; ++i) {
    rig->cluster.AddServer("m" + std::to_string(i));
  }
  if (spare_server) {
    for (TableId t = 0; t < rig->catalog.num_tables(); ++t) {
      EXPECT_TRUE(rig->cluster.PlaceTable(t, t % 2).ok());
    }
  } else {
    rig->cluster.PlaceRoundRobin(rig->catalog.num_tables());
  }
  rig->graph =
      std::make_unique<JoinGraph>(JoinGraph::FromCatalog(rig->catalog));
  rig->model =
      std::make_unique<DefaultCostModel>(&rig->catalog, &rig->cluster);
  rig->enumerator = std::make_unique<PlanEnumerator>(
      &rig->catalog, &rig->cluster, rig->graph.get(), rig->model.get(),
      EnumeratorOptions{});
  rig->gp = std::make_unique<GlobalPlan>(&rig->cluster, rig->model.get());
  rig->ctx = PlannerContext{&rig->catalog,    &rig->cluster,
                            rig->graph.get(), rig->model.get(),
                            rig->gp.get(),    rig->enumerator.get()};
  return rig;
}

// Integrates `sharing` under the cheapest feasible plan (Algorithm 2 with
// the GREEDY criterion) and returns its marginal cost.
double AddCheapest(RecoveryRig* rig, SharingId id, const Sharing& sharing) {
  const auto plans = testing_support::EnumerateAll(*rig->enumerator, sharing);
  EXPECT_TRUE(plans.ok());
  const SharingPlan* best = nullptr;
  double best_cost = 0.0;
  for (const SharingPlan& plan : *plans) {
    const auto eval =
        testing_support::DryRun(*rig->gp, plan, rig->model.get());
    if (!eval.feasible) continue;
    if (best == nullptr || eval.marginal_cost < best_cost) {
      best = &plan;
      best_cost = eval.marginal_cost;
    }
  }
  EXPECT_NE(best, nullptr);
  EXPECT_TRUE(rig->gp->AddSharing(id, sharing, *best).ok());
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

// A two-table star schema built so that view reuse dominates recomputation:
// a heavily-updated fact table (m0) keyed against a small, nearly-static
// dimension (m1). The key-key join output is tiny (~|dim| tuples), so the
// materialized join's delta stream is ~1000x cheaper to copy across the
// network than the fact table's raw update stream is to re-probe. m2 holds
// no base table — it can only ever carry materialized views.
ColumnDef Col(const std::string& name, DataType type, double distinct,
              double min_value, double max_value) {
  ColumnDef col;
  col.name = name;
  col.type = type;
  col.distinct_values = distinct;
  col.min_value = min_value;
  col.max_value = max_value;
  return col;
}

std::unique_ptr<RecoveryRig> MakeStarRig() {
  auto rig = std::make_unique<RecoveryRig>();
  TableDef fact;
  fact.name = "fact";
  fact.columns = {Col("k", DataType::kInt64, 1e6, 0.0, 1e6),
                  Col("v", DataType::kDouble, 1e4, 0.0, 1e4)};
  fact.stats = {/*cardinality=*/1e6, /*update_rate=*/1e5,
                /*tuple_bytes=*/64.0};
  TableDef dim;
  dim.name = "dim";
  dim.columns = {Col("k", DataType::kInt64, 1e3, 0.0, 1e6),
                 Col("label", DataType::kString, 1e3, 0.0, 1.0)};
  dim.stats = {/*cardinality=*/1e3, /*update_rate=*/1.0,
               /*tuple_bytes=*/64.0};
  EXPECT_TRUE(rig->catalog.AddTable(fact).ok());
  EXPECT_TRUE(rig->catalog.AddTable(dim).ok());
  for (int i = 0; i < 3; ++i) {
    rig->cluster.AddServer("m" + std::to_string(i));
  }
  EXPECT_TRUE(rig->cluster.PlaceTable(0, 0).ok());
  EXPECT_TRUE(rig->cluster.PlaceTable(1, 1).ok());
  rig->graph =
      std::make_unique<JoinGraph>(JoinGraph::FromCatalog(rig->catalog));
  rig->model =
      std::make_unique<DefaultCostModel>(&rig->catalog, &rig->cluster);
  rig->enumerator = std::make_unique<PlanEnumerator>(
      &rig->catalog, &rig->cluster, rig->graph.get(), rig->model.get(),
      EnumeratorOptions{});
  rig->gp = std::make_unique<GlobalPlan>(&rig->cluster, rig->model.get());
  rig->ctx = PlannerContext{&rig->catalog,    &rig->cluster,
                            rig->graph.get(), rig->model.get(),
                            rig->gp.get(),    rig->enumerator.get()};
  return rig;
}

TEST(RecoveryPlannerTest, MigratesReuseVictimAndParksDeadDestination) {
  auto rig = MakeStarRig();

  // Sharing 1: FACT ⋈ DIM delivered to m2, joined directly there — the
  // only view of that join in the market lives on m2.
  const Sharing a(TS({0, 1}), {}, /*destination=*/2, "alice");
  const auto a_plans = testing_support::EnumerateAll(*rig->enumerator, a);
  ASSERT_TRUE(a_plans.ok());
  const SharingPlan* a_plan = JoinAtDestinationPlan(*a_plans, 2);
  ASSERT_NE(a_plan, nullptr);
  ASSERT_TRUE(rig->gp->AddSharing(1, a, *a_plan).ok());

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
  const double b_cost_before = AddCheapest(rig.get(), 2, b);
  ASSERT_EQ(rig->gp->SharingsTouchingServer(2),
            (std::vector<SharingId>{1, 2}));

  ASSERT_TRUE(rig->cluster.MarkDown(2).ok());
  RecoveryPlanner recovery(rig->ctx);
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
  EXPECT_TRUE(rig->gp->SharingsTouchingServer(2).empty());
  EXPECT_EQ(rig->gp->record(1), nullptr);
  const auto closure = rig->gp->closure(2);
  ASSERT_TRUE(closure.has_value());
  for (const int node : *closure) {
    EXPECT_NE(rig->gp->node_server(node), 2u);
  }
  EXPECT_EQ(recovery.num_parked(), 1u);
  EXPECT_EQ(recovery.parked()[0].id, 1u);
}

TEST(RecoveryPlannerTest, DeadBaseTableHomeParksSharing) {
  auto rig = MakeRecoveryRig(/*spare_server=*/false);
  // TWEETS is homed on m1 (round-robin): losing m1 leaves nowhere to read
  // its delta stream from, so the sharing cannot be migrated.
  const Sharing s(TS({rig->tables.users, rig->tables.tweets}), {},
                  /*destination=*/0, "carol");
  AddCheapest(rig.get(), 7, s);

  ASSERT_TRUE(rig->cluster.MarkDown(1).ok());
  RecoveryPlanner recovery(rig->ctx);
  const auto report = recovery.OnServerDown(1, 0);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->parked, std::vector<SharingId>{7});
  EXPECT_TRUE(report->migrated.empty());
  EXPECT_EQ(rig->gp->num_sharings(), 0u);

  // The machine returns; a forced retry re-admits the sharing.
  ASSERT_TRUE(rig->cluster.MarkUp(1).ok());
  const auto readmitted = recovery.RetryParked(5, /*force=*/true);
  ASSERT_TRUE(readmitted.ok());
  ASSERT_EQ(readmitted->size(), 1u);
  EXPECT_EQ((*readmitted)[0].id, 7u);
  EXPECT_FALSE((*readmitted)[0].was_active);
  EXPECT_EQ(recovery.num_parked(), 0u);
  ASSERT_NE(rig->gp->record(7), nullptr);
}

TEST(RecoveryPlannerTest, UnaffectedSharingsKeepTheirPlans) {
  auto rig = MakeRecoveryRig(/*spare_server=*/true);
  const Sharing safe(TS({rig->tables.curloc, rig->tables.loc}), {},
                     /*destination=*/1, "dora");
  AddCheapest(rig.get(), 3, safe);
  const Sharing doomed(TS({rig->tables.users, rig->tables.tweets}), {},
                       /*destination=*/2, "eve");
  AddCheapest(rig.get(), 4, doomed);

  const double safe_gpc = rig->gp->GPC(3);
  ASSERT_TRUE(rig->cluster.MarkDown(2).ok());
  RecoveryPlanner recovery(rig->ctx);
  const auto report = recovery.OnServerDown(2, 0);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->parked, std::vector<SharingId>{4});

  // Sharing 3 never touched m2: untouched record, unchanged GPC.
  ASSERT_NE(rig->gp->record(3), nullptr);
  EXPECT_DOUBLE_EQ(rig->gp->GPC(3), safe_gpc);
}

TEST(RecoveryPlannerTest, ParkedSharingBacksOffExponentially) {
  auto rig = MakeRecoveryRig(/*spare_server=*/true);
  const Sharing s(TS({rig->tables.users, rig->tables.tweets}), {},
                  /*destination=*/2, "frank");
  AddCheapest(rig.get(), 9, s);
  ASSERT_TRUE(rig->cluster.MarkDown(2).ok());

  RecoveryOptions options;
  options.initial_backoff_ticks = 1;
  options.max_backoff_ticks = 4;
  RecoveryPlanner recovery(rig->ctx, options);
  ASSERT_TRUE(recovery.OnServerDown(2, /*now_tick=*/10).ok());
  ASSERT_EQ(recovery.num_parked(), 1u);
  EXPECT_EQ(recovery.parked()[0].next_retry_tick, 11);

  // Not yet due: no attempt is burned.
  auto r = recovery.RetryParked(10);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  EXPECT_EQ(recovery.parked()[0].attempts, 0);

  // Due retries fail while the server is down; backoff doubles, capped.
  ASSERT_TRUE(recovery.RetryParked(11).ok());
  EXPECT_EQ(recovery.parked()[0].attempts, 1);
  EXPECT_EQ(recovery.parked()[0].backoff_ticks, 2);
  EXPECT_EQ(recovery.parked()[0].next_retry_tick, 13);
  ASSERT_TRUE(recovery.RetryParked(13).ok());
  EXPECT_EQ(recovery.parked()[0].backoff_ticks, 4);
  EXPECT_EQ(recovery.parked()[0].next_retry_tick, 17);
  ASSERT_TRUE(recovery.RetryParked(17).ok());
  EXPECT_EQ(recovery.parked()[0].backoff_ticks, 4);  // capped
  EXPECT_EQ(recovery.parked()[0].next_retry_tick, 21);

  // Capacity returns mid-backoff: an unforced retry still waits...
  ASSERT_TRUE(rig->cluster.MarkUp(2).ok());
  r = recovery.RetryParked(18);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  // ...but a forced one (the recovery event) re-admits immediately.
  r = recovery.RetryParked(18, /*force=*/true);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].id, 9u);
  EXPECT_EQ(recovery.num_parked(), 0u);
  ASSERT_NE(rig->gp->record(9), nullptr);
}

// Admits `n` random Twitter sharings under ids 1..n, each with a buyer and
// predicates: everything a moved-from Sharing would lose.
std::map<SharingId, Sharing> AdmitTwitterMix(RecoveryRig* rig, size_t n,
                                             uint64_t seed) {
  TwitterSequenceOptions options;
  options.num_sharings = n;
  options.max_predicates = 2;
  options.frac_with_predicates = 1.0;
  options.seed = seed;
  std::map<SharingId, Sharing> originals;
  SharingId id = 1;
  for (const Sharing& s : GenerateTwitterSequence(
           rig->catalog, rig->tables, rig->cluster, options)) {
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
void ExpectEachSharingOnce(const RecoveryRig& rig,
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
    const int in_plan = rig.gp->record(id) != nullptr ? 1 : 0;
    EXPECT_EQ(in_plan + parked_times[id], 1) << "sharing " << id;
  }
}

TEST(RecoveryPlannerTest, ErrorMidFailoverParksTheRemainingVictims) {
  auto rig = MakeRecoveryRig(/*spare_server=*/false);
  const auto originals = AdmitTwitterMix(rig.get(), 24, 3);
  const size_t victims = rig->gp->SharingsTouchingServer(1).size();
  ASSERT_GE(victims, 4u);

  ASSERT_TRUE(rig->cluster.MarkDown(1).ok());
  RecoveryPlanner recovery(rig->ctx);
  {
    // The third victim's replan fails after two were handled.
    ScopedFault fault("recovery/replan", FaultSpec{1.0, 2, 1});
    const auto report = recovery.OnServerDown(1, /*now_tick=*/0);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kInternal);
  }
  EXPECT_GE(recovery.num_parked(), victims - 2);
  ExpectEachSharingOnce(*rig, recovery, originals);

  // Nothing was lost: once the machine returns every sharing is served.
  ASSERT_TRUE(rig->cluster.MarkUp(1).ok());
  ASSERT_TRUE(recovery.RetryParked(1, /*force=*/true).ok());
  EXPECT_EQ(recovery.num_parked(), 0u);
  EXPECT_EQ(rig->gp->num_sharings(), originals.size());
}

TEST(RecoveryPlannerTest, FailedFailoverReportsWhatItDid) {
  auto rig = MakeStarRig();
  // Sharing 1 is FACT ⋈ DIM joined on m2; sharings 2 and 3 filter it for
  // m0 and m1 by reusing m2's view, so all three are victims of m2.
  const Sharing a(TS({0, 1}), {}, /*destination=*/2, "alice");
  const auto a_plans = testing_support::EnumerateAll(*rig->enumerator, a);
  ASSERT_TRUE(a_plans.ok());
  const SharingPlan* a_plan = JoinAtDestinationPlan(*a_plans, 2);
  ASSERT_NE(a_plan, nullptr);
  ASSERT_TRUE(rig->gp->AddSharing(1, a, *a_plan).ok());
  Predicate pred;
  pred.table = 0;
  pred.column = 1;
  pred.op = CompareOp::kLt;
  pred.value = 5000.0;
  const double b_cost_before =
      AddCheapest(rig.get(), 2, Sharing(TS({0, 1}), {pred}, 0, "bob"));
  pred.value = 4000.0;
  AddCheapest(rig.get(), 3, Sharing(TS({0, 1}), {pred}, 1, "carol"));
  ASSERT_EQ(rig->gp->SharingsTouchingServer(2),
            (std::vector<SharingId>{1, 2, 3}));

  ASSERT_TRUE(rig->cluster.MarkDown(2).ok());
  RecoveryPlanner recovery(rig->ctx);
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
  EXPECT_DOUBLE_EQ(report.cost_after, rig->gp->TotalCost());
  ASSERT_EQ(recovery.num_parked(), 2u);
  EXPECT_EQ(recovery.parked()[0].id, 1u);
  EXPECT_EQ(recovery.parked()[1].id, 3u);
  EXPECT_EQ(rig->gp->sharing_ids(), std::vector<SharingId>{2});
}

TEST(RecoveryPlannerTest, ErrorMidRetryLeavesTheQueueAsItWas) {
  auto rig = MakeRecoveryRig(/*spare_server=*/false);
  const auto originals = AdmitTwitterMix(rig.get(), 24, 5);
  ASSERT_TRUE(rig->cluster.MarkDown(1).ok());
  RecoveryPlanner recovery(rig->ctx);
  ASSERT_TRUE(recovery.OnServerDown(1, /*now_tick=*/0).ok());
  ASSERT_GE(recovery.num_parked(), 4u);
  // One unforced retry while the machine is still down, so the queue
  // carries non-initial attempts and backoffs into the failing batch.
  ASSERT_TRUE(recovery.RetryParked(1).ok());

  const std::vector<ParkedSharing> before = recovery.parked();
  const std::vector<SharingId> served_before = rig->gp->sharing_ids();
  ASSERT_TRUE(rig->cluster.MarkUp(1).ok());
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
    EXPECT_EQ(rig->gp->sharing_ids(), served_before);
    ExpectEachSharingOnce(*rig, recovery, originals);
  }

  // A batch that plans but cannot be served (its `readmit` fails) is
  // undone the same way.
  std::vector<SharingId> offered;
  const auto refused = recovery.RetryParked(
      2, /*force=*/true, [&](const std::vector<MigratedSharing>& batch) {
        for (const MigratedSharing& m : batch) offered.push_back(m.id);
        EXPECT_EQ(rig->gp->num_sharings(),
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
  EXPECT_EQ(rig->gp->sharing_ids(), served_before);
  ExpectEachSharingOnce(*rig, recovery, originals);

  // The batch is retried cleanly: no AlreadyExists from a half-applied
  // earlier attempt, and every parked sharing comes back.
  const auto readmitted = recovery.RetryParked(3, /*force=*/true);
  ASSERT_TRUE(readmitted.ok()) << readmitted.status().ToString();
  EXPECT_EQ(readmitted->size(), before.size());
  EXPECT_EQ(recovery.num_parked(), 0u);
  ExpectEachSharingOnce(*rig, recovery, originals);
}

}  // namespace
}  // namespace dsm
