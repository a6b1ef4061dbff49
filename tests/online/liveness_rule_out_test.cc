// GlobalPlan::LivenessRulesOut against its oracle: whenever the check says
// a down server rules a sharing out, the full path (Enumerate, then
// a dry run of every plan) must find no feasible plan. Failures come
// both through RecoveryPlanner::OnServerDown and through a bare
// Cluster::MarkDown, which leaves live views over dead-home tables in the
// global plan (the "covered" branch of the rule).

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "market/rig.h"
#include "online/greedy.h"
#include "online/recovery_planner.h"
#include "testing/dry_run.h"
#include "testing/plans.h"

namespace dsm {
namespace {

TableSet TS(std::initializer_list<TableId> ids) {
  TableSet s;
  for (const TableId id : ids) s.Add(id);
  return s;
}

// The Twitter schema placed round-robin on `servers` machines.
TwitterScenario MakeWorld(size_t servers, bool table_driven = false) {
  std::optional<TableDrivenCostModel::Options> costs;
  if (table_driven) costs.emplace();
  return MakeTwitterScenario(servers, costs);
}

// A beam keeps the plan count small; the rule holds for any enumeration,
// since every plan keeps one leaf per member table on its home and its
// root on the destination.
Rig MakeBeamRig(const Scenario& world) {
  return MakeRig(world, EnumeratorOptions{.per_subset_cap = 6});
}

std::vector<Sharing> TwitterMix(const TwitterScenario& world, size_t n,
                                uint64_t seed) {
  TwitterSequenceOptions options;
  options.num_sharings = n;
  options.max_predicates = 2;
  options.seed = seed;
  return GenerateTwitterSequence(*world.catalog, world.tables, *world.cluster,
                                 options);
}

bool AnyPlanFeasible(const Rig& rig, const Sharing& sharing) {
  const auto plans = testing_support::EnumerateAll(*rig.enumerator, sharing);
  EXPECT_TRUE(plans.ok()) << plans.status().ToString();
  if (!plans.ok()) return false;
  for (const SharingPlan& plan : *plans) {
    if (testing_support::DryRun(*rig.global_plan, plan, rig.ctx.model)
            .feasible) {
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
    const TwitterScenario world = MakeWorld(4);
    const Rig rig = MakeBeamRig(world);
    GreedyPlanner planner(rig.ctx);
    RecoveryPlanner recovery(rig.ctx);
    const std::vector<Sharing> mix = TwitterMix(world, 40, seed);
    for (size_t i = 0; i < 28; ++i) (void)planner.ProcessSharing(mix[i]);

    Rng rng(seed);
    for (int64_t round = 0; round < 4; ++round) {
      std::vector<ServerId> down;
      const int failures = static_cast<int>(rng.UniformInt(1, 2));
      for (int f = 0; f < failures; ++f) {
        const auto server = static_cast<ServerId>(rng.UniformInt(0, 3));
        if (!world.cluster->is_up(server)) continue;
        ASSERT_TRUE(world.cluster->MarkDown(server).ok());
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
          if (!LivenessRulesOut(rig.ctx, probe)) {
            if (world.cluster->is_up(dest)) {
              for (const TableId t : probe.tables().ToVector()) {
                if (!world.cluster->is_up(*world.cluster->HomeOf(t))) {
                  ++covered;
                  break;
                }
              }
            }
            continue;
          }
          ++ruled_out;
          EXPECT_FALSE(AnyPlanFeasible(rig, probe))
              << "seed " << seed << " round " << round << ": "
              << probe.ToString(*world.catalog);
        }
      }

      for (const ServerId server : down) {
        ASSERT_TRUE(world.cluster->MarkUp(server).ok());
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
  const TwitterScenario world = MakeWorld(3);
  const Rig rig = MakeBeamRig(world);
  // USERS lives on m0, TWEETS on m1 (round-robin).
  const Sharing s(TS({world.tables.users, world.tables.tweets}), {},
                  /*destination=*/0, "ann");
  const auto plans = testing_support::EnumerateAll(*rig.enumerator, s);
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
  ASSERT_TRUE(rig.global_plan->AddSharing(kCover, s, *at_dest).ok());

  ASSERT_TRUE(world.cluster->MarkDown(1).ok());  // TWEETS' home; no failover
  const Sharing again(s.tables(), {}, /*destination=*/0, "bob");
  EXPECT_FALSE(rig.global_plan->LivenessRulesOut(again));
  EXPECT_TRUE(AnyPlanFeasible(rig, again));
  GreedyPlanner planner(rig.ctx);
  const auto choice = planner.ProcessSharing(again);
  ASSERT_TRUE(choice.ok()) << choice.status().ToString();
  EXPECT_DOUBLE_EQ(choice->marginal_cost, 0.0);

  // Without the covering view nothing can read TWEETS' delta stream.
  ASSERT_TRUE(rig.global_plan->RemoveSharing(kCover).ok());
  ASSERT_TRUE(rig.global_plan->RemoveSharing(choice->id).ok());
  EXPECT_TRUE(rig.global_plan->LivenessRulesOut(again));
  EXPECT_FALSE(AnyPlanFeasible(rig, again));
}

// Validation errors keep precedence over the rule-out.
TEST(LivenessRuleOutTest, UnconnectedSharingToDeadDestinationIsInvalid) {
  const TwitterScenario world = MakeWorld(3);
  const Rig rig = MakeBeamRig(world);
  // Keep a single join edge, so USERS and TWEETS are no longer connected.
  *world.graph = JoinGraph(world.catalog->num_tables());
  world.graph->AddEdge(world.tables.users, world.tables.curloc);
  const Sharing s(TS({world.tables.users, world.tables.tweets}), {},
                  /*destination=*/2, "cy");
  ASSERT_TRUE(world.cluster->MarkDown(2).ok());
  EXPECT_TRUE(rig.global_plan->LivenessRulesOut(s));  // the bare rule fires...
  EXPECT_FALSE(LivenessRulesOut(rig.ctx, s));  // ...but s is invalid
  GreedyPlanner planner(rig.ctx);
  const auto choice = planner.ProcessSharing(s);
  ASSERT_FALSE(choice.ok());
  EXPECT_EQ(choice.status().code(), StatusCode::kInvalidArgument);

  // Likewise a connected sharing over an unplaced table keeps NotFound.
  Scenario unplaced;
  ASSERT_TRUE(BuildTwitterCatalog(unplaced.catalog.get()).ok());
  for (int i = 0; i < 3; ++i) {
    unplaced.cluster->AddServer("u" + std::to_string(i));
  }
  ASSERT_TRUE(unplaced.cluster->PlaceTable(world.tables.users, 0).ok());
  ASSERT_TRUE(unplaced.cluster->MarkDown(2).ok());
  unplaced.graph = std::make_unique<JoinGraph>(*world.graph);
  unplaced.FillDefaults();
  const Rig unplaced_rig = MakeRig(unplaced);
  const Sharing t(TS({world.tables.users, world.tables.curloc}), {},
                  /*destination=*/2, "cy");
  EXPECT_FALSE(LivenessRulesOut(unplaced_rig.ctx, t));
  GreedyPlanner unplaced_planner(unplaced_rig.ctx);
  const auto missing = unplaced_planner.ProcessSharing(t);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// A stateful cost model draws costs lazily in query order; the check must
// never skip its calls.
TEST(LivenessRuleOutTest, NeverFiresForStatefulCostModels) {
  const TwitterScenario world = MakeWorld(3, /*table_driven=*/true);
  const Rig rig = MakeBeamRig(world);
  ASSERT_FALSE(world.model->HasPureQueries());
  ASSERT_TRUE(world.cluster->MarkDown(1).ok());
  GreedyPlanner planner(rig.ctx);
  for (const Sharing& base : TwitterMix(world, 10, 4)) {
    for (ServerId dest = 0; dest < 3; ++dest) {
      const Sharing probe(base.tables(), base.predicates(), dest);
      EXPECT_FALSE(rig.global_plan->LivenessRulesOut(probe));
      EXPECT_FALSE(LivenessRulesOut(rig.ctx, probe));
    }
  }
  // The full path still rejects a sharing delivered to the dead machine.
  const Sharing dead_dest(TS({world.tables.users, world.tables.tweets}), {},
                          /*destination=*/1, "dee");
  const auto choice = planner.ProcessSharing(dead_dest);
  ASSERT_FALSE(choice.ok());
  EXPECT_EQ(choice.status().code(), StatusCode::kCapacityExceeded);
}

}  // namespace
}  // namespace dsm
