// GlobalPlan::LivenessRulesOut against its oracle: whenever the check says
// a down server rules a sharing out, the full path (Enumerate, then
// a dry run of every plan) must find no feasible plan. Failures come
// both through RecoveryPlanner::OnServerDown and through a bare
// Cluster::MarkDown, which leaves live views over dead-home tables in the
// global plan (the "covered" branch of the rule).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "cost/default_cost_model.h"
#include "cost/table_cost_model.h"
#include "online/greedy.h"
#include "online/recovery_planner.h"
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

struct Stack {
  Catalog catalog;
  Cluster cluster;
  TwitterTables tables;
  std::unique_ptr<JoinGraph> graph;
  std::unique_ptr<CostModel> model;
  std::unique_ptr<PlanEnumerator> enumerator;
  std::unique_ptr<GlobalPlan> gp;
  PlannerContext ctx;
};

// The Twitter schema placed round-robin on `servers` machines. A beam keeps
// the plan count small; the rule holds for any enumeration, since every
// plan keeps one leaf per member table on its home and its root on the
// destination.
std::unique_ptr<Stack> MakeStack(size_t servers, bool table_driven = false) {
  auto st = std::make_unique<Stack>();
  const auto tables = BuildTwitterCatalog(&st->catalog);
  EXPECT_TRUE(tables.ok());
  st->tables = *tables;
  for (size_t i = 0; i < servers; ++i) {
    st->cluster.AddServer("m" + std::to_string(i));
  }
  st->cluster.PlaceRoundRobin(st->catalog.num_tables());
  st->graph =
      std::make_unique<JoinGraph>(JoinGraph::FromCatalog(st->catalog));
  if (table_driven) {
    st->model = std::make_unique<TableDrivenCostModel>();
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

std::vector<Sharing> TwitterMix(const Stack& st, size_t n, uint64_t seed) {
  TwitterSequenceOptions options;
  options.num_sharings = n;
  options.max_predicates = 2;
  options.seed = seed;
  return GenerateTwitterSequence(st.catalog, st.tables, st.cluster, options);
}

bool AnyPlanFeasible(const Stack& st, const Sharing& sharing) {
  const auto plans = testing_support::EnumerateAll(*st.enumerator, sharing);
  EXPECT_TRUE(plans.ok()) << plans.status().ToString();
  if (!plans.ok()) return false;
  for (const SharingPlan& plan : *plans) {
    if (testing_support::DryRun(*st.gp, plan, st.model.get()).feasible) {
      return true;
    }
  }
  return false;
}

TEST(LivenessRuleOutTest, RuledOutSharingsHaveNoFeasiblePlan) {
  size_t probed = 0;
  size_t ruled_out = 0;
  size_t covered = 0;  // a member home is down, yet not ruled out
  for (const uint64_t seed : {1, 2, 3}) {
    auto st = MakeStack(4);
    GreedyPlanner planner(st->ctx);
    RecoveryPlanner recovery(st->ctx);
    const std::vector<Sharing> mix = TwitterMix(*st, 40, seed);
    for (size_t i = 0; i < 28; ++i) (void)planner.ProcessSharing(mix[i]);

    Rng rng(seed);
    for (int64_t round = 0; round < 4; ++round) {
      std::vector<ServerId> down;
      const int failures = static_cast<int>(rng.UniformInt(1, 2));
      for (int f = 0; f < failures; ++f) {
        const auto server = static_cast<ServerId>(rng.UniformInt(0, 3));
        if (!st->cluster.is_up(server)) continue;
        ASSERT_TRUE(st->cluster.MarkDown(server).ok());
        down.push_back(server);
        if (rng.Bernoulli(0.5)) {
          ASSERT_TRUE(recovery.OnServerDown(server, round).ok());
        }
      }

      // Probe every sharing of the mix at every destination.
      for (const Sharing& base : mix) {
        for (ServerId dest = 0; dest < 4; ++dest) {
          const Sharing probe(base.tables(), base.predicates(), dest);
          ++probed;
          if (!LivenessRulesOut(st->ctx, probe)) {
            if (st->cluster.is_up(dest)) {
              for (const TableId t : probe.tables().ToVector()) {
                if (!st->cluster.is_up(*st->cluster.HomeOf(t))) {
                  ++covered;
                  break;
                }
              }
            }
            continue;
          }
          ++ruled_out;
          EXPECT_FALSE(AnyPlanFeasible(*st, probe))
              << "seed " << seed << " round " << round << ": "
              << probe.ToString(st->catalog);
        }
      }

      for (const ServerId server : down) {
        ASSERT_TRUE(st->cluster.MarkUp(server).ok());
      }
      ASSERT_TRUE(recovery.RetryParked(round, /*force=*/true).ok());
      for (size_t i = 28 + 3 * static_cast<size_t>(round);
           i < 31 + 3 * static_cast<size_t>(round); ++i) {
        (void)planner.ProcessSharing(mix[i]);
      }
    }
  }
  // Not vacuous: the rule fires on some probes and not on others, and its
  // "covered" branch (live view over a dead-home table) is reached.
  EXPECT_GT(ruled_out, 0u);
  EXPECT_LT(ruled_out, probed);
  EXPECT_GT(covered, 0u);
}

// A dead member home whose table is covered by an exact root view on the
// destination: the check stays silent and the full path reuses the view.
TEST(LivenessRuleOutTest, CoveredDeadHomeIsNotRuledOut) {
  auto st = MakeStack(3);
  // USERS lives on m0, TWEETS on m1 (round-robin).
  const Sharing s(TS({st->tables.users, st->tables.tweets}), {},
                  /*destination=*/0, "ann");
  const auto plans = testing_support::EnumerateAll(*st->enumerator, s);
  ASSERT_TRUE(plans.ok());
  const SharingPlan* at_dest = nullptr;
  for (const SharingPlan& plan : *plans) {
    if (plan.nodes.size() == 3 && plan.root().is_join() &&
        plan.root().server == 0) {
      at_dest = &plan;
    }
  }
  ASSERT_NE(at_dest, nullptr);
  constexpr SharingId kCover = 100;
  ASSERT_TRUE(st->gp->AddSharing(kCover, s, *at_dest).ok());

  ASSERT_TRUE(st->cluster.MarkDown(1).ok());  // TWEETS' home; no failover
  const Sharing again(s.tables(), {}, /*destination=*/0, "bob");
  EXPECT_FALSE(st->gp->LivenessRulesOut(again));
  EXPECT_TRUE(AnyPlanFeasible(*st, again));
  GreedyPlanner planner(st->ctx);
  const auto choice = planner.ProcessSharing(again);
  ASSERT_TRUE(choice.ok()) << choice.status().ToString();
  EXPECT_DOUBLE_EQ(choice->marginal_cost, 0.0);

  // Without the covering view nothing can read TWEETS' delta stream.
  ASSERT_TRUE(st->gp->RemoveSharing(kCover).ok());
  ASSERT_TRUE(st->gp->RemoveSharing(choice->id).ok());
  EXPECT_TRUE(st->gp->LivenessRulesOut(again));
  EXPECT_FALSE(AnyPlanFeasible(*st, again));
}

// Validation errors keep precedence over the rule-out.
TEST(LivenessRuleOutTest, UnconnectedSharingToDeadDestinationIsInvalid) {
  auto st = MakeStack(3);
  // Keep a single join edge, so USERS and TWEETS are no longer connected.
  *st->graph = JoinGraph(st->catalog.num_tables());
  st->graph->AddEdge(st->tables.users, st->tables.curloc);
  const Sharing s(TS({st->tables.users, st->tables.tweets}), {},
                  /*destination=*/2, "cy");
  ASSERT_TRUE(st->cluster.MarkDown(2).ok());
  EXPECT_TRUE(st->gp->LivenessRulesOut(s));    // the bare rule fires...
  EXPECT_FALSE(LivenessRulesOut(st->ctx, s));  // ...but s is invalid
  GreedyPlanner planner(st->ctx);
  const auto choice = planner.ProcessSharing(s);
  ASSERT_FALSE(choice.ok());
  EXPECT_EQ(choice.status().code(), StatusCode::kInvalidArgument);

  // Likewise a connected sharing over an unplaced table keeps NotFound.
  Cluster unplaced;
  for (int i = 0; i < 3; ++i) unplaced.AddServer("u" + std::to_string(i));
  ASSERT_TRUE(unplaced.PlaceTable(st->tables.users, 0).ok());
  ASSERT_TRUE(unplaced.MarkDown(2).ok());
  PlanEnumerator enumerator(&st->catalog, &unplaced, st->graph.get(),
                            st->model.get());
  GlobalPlan gp(&unplaced, st->model.get());
  PlannerContext ctx = st->ctx;
  ctx.cluster = &unplaced;
  ctx.enumerator = &enumerator;
  ctx.global_plan = &gp;
  const Sharing t(TS({st->tables.users, st->tables.curloc}), {},
                  /*destination=*/2, "cy");
  EXPECT_FALSE(LivenessRulesOut(ctx, t));
  GreedyPlanner unplaced_planner(ctx);
  const auto missing = unplaced_planner.ProcessSharing(t);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// A stateful cost model draws costs lazily in query order; the check must
// never skip its calls.
TEST(LivenessRuleOutTest, NeverFiresForStatefulCostModels) {
  auto st = MakeStack(3, /*table_driven=*/true);
  ASSERT_FALSE(st->model->HasPureQueries());
  ASSERT_TRUE(st->cluster.MarkDown(1).ok());
  GreedyPlanner planner(st->ctx);
  for (const Sharing& base : TwitterMix(*st, 10, 4)) {
    for (ServerId dest = 0; dest < 3; ++dest) {
      const Sharing probe(base.tables(), base.predicates(), dest);
      EXPECT_FALSE(st->gp->LivenessRulesOut(probe));
      EXPECT_FALSE(LivenessRulesOut(st->ctx, probe));
    }
  }
  // The full path still rejects a sharing delivered to the dead machine.
  const Sharing dead_dest(TS({st->tables.users, st->tables.tweets}), {},
                          /*destination=*/1, "dee");
  const auto choice = planner.ProcessSharing(dead_dest);
  ASSERT_FALSE(choice.ok());
  EXPECT_EQ(choice.status().code(), StatusCode::kCapacityExceeded);
}

}  // namespace
}  // namespace dsm
