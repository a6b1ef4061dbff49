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
#include <vector>

#include "cost/default_cost_model.h"
#include "cost/table_cost_model.h"
#include "costing/costing_session.h"
#include "costing/fair_cost.h"
#include "costing/lpc.h"
#include "costing/savings.h"
#include "io/market_io.h"
#include "obs/metrics.h"
#include "online/greedy.h"
#include "online/managed_risk.h"
#include "online/recovery_planner.h"
#include "online/replanner.h"
#include "online/speculative.h"
#include "testing/dry_run.h"
#include "testing/plans.h"
#include "testing/rig.h"
#include "workload/adversarial.h"
#include "workload/synthetic.h"
#include "workload/twitter.h"

namespace dsm {
namespace {

using testing_support::MakeRig;

uint64_t LpcEnumerations() {
  return obs::MetricsRegistry::Global()
      .GetCounter("dsm.costing.lpc_enumerations")
      ->value();
}

struct Stack {
  Catalog catalog;
  Cluster cluster;
  std::unique_ptr<JoinGraph> graph;
  std::unique_ptr<CostModel> model;
  std::unique_ptr<PlanEnumerator> enumerator;
  std::unique_ptr<GlobalPlan> gp;
  PlannerContext ctx;
  std::vector<Sharing> sharings;
};

// `n` random sharings over the Twitter schema (up to two predicates) or
// the star schema (a fact and up to three dimensions), placed round-robin
// on four machines. A beam keeps the plan count small.
std::unique_ptr<Stack> MakeStack(bool star, bool table_driven, size_t n,
                                 uint64_t seed) {
  auto st = std::make_unique<Stack>();
  constexpr size_t kServers = 4;
  for (size_t i = 0; i < kServers; ++i) {
    st->cluster.AddServer("m" + std::to_string(i));
  }
  if (star) {
    const auto schema = BuildStarCatalog(&st->catalog, StarSchemaOptions{});
    EXPECT_TRUE(schema.ok());
    st->cluster.PlaceRoundRobin(st->catalog.num_tables());
    StarSequenceOptions options;
    options.num_sharings = n;
    options.max_tables = 4;
    options.seed = seed;
    st->sharings = GenerateStarSharings(*schema, st->cluster, options);
  } else {
    const auto tables = BuildTwitterCatalog(&st->catalog);
    EXPECT_TRUE(tables.ok());
    st->cluster.PlaceRoundRobin(st->catalog.num_tables());
    TwitterSequenceOptions options;
    options.num_sharings = n;
    options.max_predicates = 2;
    options.seed = seed;
    st->sharings =
        GenerateTwitterSequence(st->catalog, *tables, st->cluster, options);
  }
  st->graph =
      std::make_unique<JoinGraph>(JoinGraph::FromCatalog(st->catalog));
  if (table_driven) {
    TableDrivenCostModel::Options options;
    options.seed = seed;
    st->model = std::make_unique<TableDrivenCostModel>(options);
  } else {
    st->model =
        std::make_unique<DefaultCostModel>(&st->catalog, &st->cluster);
  }
  EnumeratorOptions options;
  options.per_subset_cap = 6;
  st->enumerator = std::make_unique<PlanEnumerator>(
      &st->catalog, &st->cluster, st->graph.get(), st->model.get(), options);
  st->gp = std::make_unique<GlobalPlan>(&st->cluster, st->model.get());
  st->ctx = PlannerContext{&st->catalog,    &st->cluster,
                           st->graph.get(), st->model.get(),
                           st->gp.get(),    st->enumerator.get()};
  return st;
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
      auto st = MakeStack(star, table_driven, 30, 11);
      GreedyPlanner planner(st->ctx);
      // Half the sharings are admitted first, so the dry runs below reuse
      // views; standalone cost ignores reuse either way.
      for (size_t i = 0; i < 15; ++i) {
        (void)planner.ProcessSharing(st->sharings[i]);
      }
      ASSERT_GT(st->gp->num_alive_views(), 0u);
      for (size_t i = 15; i < st->sharings.size(); ++i) {
        const auto plans =
            testing_support::EnumerateAll(*st->enumerator, st->sharings[i]);
        ASSERT_TRUE(plans.ok()) << plans.status().ToString();
        for (const SharingPlan& plan : *plans) {
          EXPECT_EQ(testing_support::DryRun(*st->gp, plan, st->model.get())
                        .standalone_cost,
                    PlanCost(plan, st->model.get()));
          ++plans_checked;
        }
      }
    }
  }
  EXPECT_GT(plans_checked, 400u);
}

TEST(AdmissionLpcTest, PlannerPathsRecordTheEnumeratedLpc) {
  auto st = MakeStack(/*star=*/false, /*table_driven=*/false, 24, 5);
  ManagedRiskPlanner planner(st->ctx);

  // OnlinePlanner: the full path, then identical twins via the fast path.
  size_t identical = 0;
  for (size_t i = 0; i < st->sharings.size() + 6; ++i) {
    const Sharing& sharing = st->sharings[i % st->sharings.size()];
    const auto choice = planner.ProcessSharing(sharing);
    if (!choice.ok()) continue;
    if (choice->reused_identical) ++identical;
    ExpectRecordedLpcExact(st->ctx, choice->id);
  }
  EXPECT_GT(identical, 0u);

  // RecoveryPlanner: migration off a dead server, then re-admission.
  RecoveryPlanner recovery(st->ctx);
  size_t replanned = 0;
  for (const ServerId lost : {ServerId{1}, ServerId{2}}) {
    ASSERT_TRUE(st->cluster.MarkDown(lost).ok());
    const auto down = recovery.OnServerDown(lost, /*now_tick=*/0);
    ASSERT_TRUE(down.ok()) << down.status().ToString();
    for (const MigratedSharing& m : down->migrated) {
      ExpectRecordedLpcExact(st->ctx, m.id);
      ++replanned;
    }
    ASSERT_TRUE(st->cluster.MarkUp(lost).ok());
    const auto readmitted = recovery.RetryParked(1, /*force=*/true);
    ASSERT_TRUE(readmitted.ok()) << readmitted.status().ToString();
    for (const MigratedSharing& m : *readmitted) {
      ExpectRecordedLpcExact(st->ctx, m.id);
      ++replanned;
    }
  }
  EXPECT_GT(replanned, 0u);

  // Replanner: every sharing is removed and re-integrated.
  Replanner replanner(st->ctx);
  ASSERT_TRUE(replanner.Improve().ok());
  for (const SharingId id : st->gp->sharing_ids()) {
    ExpectRecordedLpcExact(st->ctx, id);
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
  auto st = MakeStack(/*star=*/false, /*table_driven=*/false, 16, 23);
  ManagedRiskPlanner planner(st->ctx);
  for (const Sharing& sharing : st->sharings) {
    (void)planner.ProcessSharing(sharing);
  }
  ASSERT_GT(st->gp->num_sharings(), 0u);

  const auto text = MarketStateToString(st->catalog, st->cluster,
                                        st->gp.get());
  ASSERT_TRUE(text.ok());
  const auto state = MarketStateFromString(*text);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  GlobalPlan restored(&st->cluster, st->model.get());
  ASSERT_TRUE(RestoreGlobalPlan(*state, &restored).ok());
  for (const auto& [id, rec] : restored.records()) {
    EXPECT_FALSE(rec.lpc.has_value()) << id;
  }

  LpcCalculator lpc(st->enumerator.get(), st->model.get());
  const uint64_t before = LpcEnumerations();
  const auto live = BuildFairCostProblem(*st->gp, &lpc);
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
  auto st = MakeStack(/*star=*/false, /*table_driven=*/false, 30, 3);
  ManagedRiskPlanner planner(st->ctx);
  RecoveryPlanner recovery(st->ctx);
  LpcCalculator lpc(st->enumerator.get(), st->model.get());
  CostingSession session(st->gp.get(), &lpc);
  const uint64_t before = LpcEnumerations();

  // Arrivals, with every fifth sharing arriving twice (identical twins).
  std::vector<SharingId> admitted;
  size_t identical = 0;
  for (size_t i = 0; i < st->sharings.size(); ++i) {
    for (int copy = 0; copy < (i % 5 == 0 ? 2 : 1); ++copy) {
      const auto choice = planner.ProcessSharing(st->sharings[i]);
      if (!choice.ok()) continue;
      admitted.push_back(choice->id);
      if (choice->reused_identical) ++identical;
      ASSERT_TRUE(session.Refresh().ok());
    }
  }
  EXPECT_GT(identical, 0u);

  // Removals.
  for (size_t i = 0; i < admitted.size(); i += 4) {
    ASSERT_TRUE(st->gp->RemoveSharing(admitted[i]).ok());
    ASSERT_TRUE(session.Refresh().ok());
  }

  // A server failure, then re-admission of the parked sharings.
  constexpr ServerId kLost = 1;
  ASSERT_TRUE(st->cluster.MarkDown(kLost).ok());
  const auto down = recovery.OnServerDown(kLost, /*now_tick=*/0);
  ASSERT_TRUE(down.ok()) << down.status().ToString();
  ASSERT_TRUE(session.Refresh().ok());
  ASSERT_TRUE(st->cluster.MarkUp(kLost).ok());
  const auto readmitted = recovery.RetryParked(1, /*force=*/true);
  ASSERT_TRUE(readmitted.ok()) << readmitted.status().ToString();
  EXPECT_GT(down->migrated.size() + readmitted->size(), 0u);
  ASSERT_TRUE(session.Refresh().ok());

  EXPECT_EQ(LpcEnumerations() - before, 0u);
}

}  // namespace
}  // namespace dsm
