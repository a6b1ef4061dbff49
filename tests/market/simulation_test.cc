#include "market/simulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/fault.h"
#include "market/rig.h"
#include "online/managed_risk.h"
#include "online/recovery_planner.h"

namespace dsm {
namespace {

TableSet TS(std::initializer_list<TableId> ids) {
  TableSet s;
  for (const TableId id : ids) s.Add(id);
  return s;
}

// The Twitter schema on three machines, placed round-robin.
class SimulationTest : public ::testing::Test {
 protected:
  const TwitterScenario world_ = MakeTwitterScenario(3);
  const Catalog& catalog_ = *world_.catalog;
  const TwitterTables& tables_ = world_.tables;
};

TEST_F(SimulationTest, RandomTupleMatchesSchema) {
  Rng rng(5);
  const Tuple t = RandomTupleForTable(catalog_, tables_.users, &rng);
  EXPECT_EQ(t.size(), catalog_.table(tables_.users).columns.size());
}

TEST_F(SimulationTest, ViewsStayFreshUnderStreaming) {
  MarketSimulation sim(&catalog_, 77);
  ASSERT_TRUE(
      sim.AddBuyerView(1, ViewKey(TS({tables_.users, tables_.tweets})))
          .ok());
  ASSERT_TRUE(
      sim.AddBuyerView(2, ViewKey(TS({tables_.tweets, tables_.curloc})))
          .ok());
  ASSERT_TRUE(sim.Run(/*ticks=*/5, /*scale=*/0.05).ok());
  EXPECT_GT(sim.updates_applied(), 0u);
  EXPECT_EQ(sim.ticks_elapsed(), 5);
  const auto verified = sim.VerifyViews();
  ASSERT_TRUE(verified.ok());
  EXPECT_TRUE(*verified);
}

TEST_F(SimulationTest, DeletesHandled) {
  MarketSimulation sim(&catalog_, 78);
  ASSERT_TRUE(
      sim.AddBuyerView(1, ViewKey(TS({tables_.users, tables_.tweets})))
          .ok());
  ASSERT_TRUE(sim.Run(/*ticks=*/8, /*scale=*/0.03,
                      /*delete_fraction=*/0.5)
                  .ok());
  const auto verified = sim.VerifyViews();
  ASSERT_TRUE(verified.ok());
  EXPECT_TRUE(*verified);
  // Bases never go negative.
  for (const TableId t : {tables_.users, tables_.tweets}) {
    sim.engine().base(t)->ForEachRow(
        [](const Tuple&, int64_t count) { EXPECT_GT(count, 0); });
  }
}

TEST_F(SimulationTest, RefusedTickAppliesNothingAndRetriesCleanly) {
  MarketSimulation sim(&catalog_, 83);
  ASSERT_TRUE(
      sim.AddBuyerView(1, ViewKey(TS({tables_.users, tables_.tweets})))
          .ok());
  ASSERT_TRUE(sim.Run(/*ticks=*/4, /*scale=*/0.1,
                      /*delete_fraction=*/0.5)
                  .ok());
  const uint64_t applied = sim.updates_applied();
  const int ticks = sim.ticks_elapsed();
  const int64_t view_size = sim.ViewSize(1);
  const Relation users = *sim.engine().base(tables_.users);
  const Relation tweets = *sim.engine().base(tables_.tweets);
  {
    // Each table's round joins the one view's table set: USERS' join
    // completes, TWEETS' fails.
    FaultSpec spec;
    spec.fail_after = 1;
    spec.max_fires = 1;
    ScopedFault fault("maintain/join", spec);
    EXPECT_EQ(sim.Run(1, 0.1, 0.5).code(), StatusCode::kInternal);
    EXPECT_EQ(FaultInjector::Global().fires("maintain/join"), 1);
  }
  EXPECT_EQ(sim.updates_applied(), applied);
  EXPECT_EQ(sim.ticks_elapsed(), ticks);
  EXPECT_EQ(sim.ViewSize(1), view_size);
  EXPECT_TRUE(sim.engine().base(tables_.users)->BagEquals(users));
  EXPECT_TRUE(sim.engine().base(tables_.tweets)->BagEquals(tweets));

  // The simulation's live tuples still match the bases, so the deletes of
  // the ticks that follow are all accepted.
  ASSERT_TRUE(sim.Run(/*ticks=*/6, /*scale=*/0.1,
                      /*delete_fraction=*/0.5)
                  .ok());
  const auto verified = sim.VerifyViews();
  ASSERT_TRUE(verified.ok());
  EXPECT_TRUE(*verified);
}

// The tuple stream MarketSimulation::Run must reproduce, generated the
// plain way: per table a vector of live tuples in arrival order, deleted
// from by an order-keeping erase, with the same Rng calls (compression
// 1.0, no fault domain, so the Rng serves tuple generation only).
class ReferenceStream {
 public:
  ReferenceStream(const Catalog* catalog, uint64_t seed,
                  std::vector<TableId> tables)
      : catalog_(catalog), rng_(seed), tables_(std::move(tables)) {
    std::sort(tables_.begin(), tables_.end());
  }

  void Tick(double scale, double delete_fraction) {
    for (const TableId t : tables_) {
      const int batch = std::max(
          0, static_cast<int>(std::llround(
                 catalog_->table(t).stats.update_rate * scale)));
      std::vector<Tuple>& live = live_[t];
      for (int i = 0; i < batch; ++i) {
        if (!live.empty() && rng_.Bernoulli(delete_fraction)) {
          const auto idx = rng_.UniformInt(
              0, static_cast<int64_t>(live.size()) - 1);
          live.erase(live.begin() + idx);
        } else {
          live.push_back(RandomTupleForTable(*catalog_, t, &rng_));
        }
      }
    }
  }

  // A tick the engine refused: its draws are spent, its edits undone.
  void RefusedTick(double scale, double delete_fraction) {
    const std::map<TableId, std::vector<Tuple>> before = live_;
    Tick(scale, delete_fraction);
    live_ = before;
  }

  // True when `base` holds exactly the live tuples of `table`.
  bool Matches(TableId table, const Relation& base) const {
    Relation expected(base.columns());
    const auto it = live_.find(table);
    if (it != live_.end()) {
      for (const Tuple& tuple : it->second) expected.Apply(tuple, 1);
    }
    return base.BagEquals(expected);
  }

 private:
  const Catalog* catalog_;
  Rng rng_;
  std::vector<TableId> tables_;
  std::map<TableId, std::vector<Tuple>> live_;
};

TEST_F(SimulationTest, TupleStreamMatchesTheReferenceGenerator) {
  // Churn-heavy ticks over three tables, a refused tick, then its retry
  // and more ticks: after every tick each base holds exactly the
  // reference's live tuples, so deletes pick the same tuples the plain
  // erase loop picks.
  constexpr uint64_t kSeed = 97;
  constexpr double kScale = 0.1;
  constexpr double kDeletes = 0.45;
  const std::vector<TableId> tables = {tables_.users, tables_.tweets,
                                       tables_.curloc};
  MarketSimulation sim(&catalog_, kSeed);
  ASSERT_TRUE(
      sim.AddBuyerView(1, ViewKey(TS({tables_.users, tables_.tweets})))
          .ok());
  ASSERT_TRUE(
      sim.AddBuyerView(2, ViewKey(TS({tables_.tweets, tables_.curloc})))
          .ok());
  ReferenceStream reference(&catalog_, kSeed, tables);
  const auto expect_match = [&](const std::string& when) {
    for (const TableId t : tables) {
      EXPECT_TRUE(reference.Matches(t, *sim.engine().base(t)))
          << when << ", table " << t;
    }
  };
  for (int tick = 0; tick < 12; ++tick) {
    ASSERT_TRUE(sim.Run(1, kScale, kDeletes).ok());
    reference.Tick(kScale, kDeletes);
    expect_match("tick " + std::to_string(tick));
  }
  {
    FaultSpec spec;
    spec.fail_after = 1;
    spec.max_fires = 1;
    ScopedFault fault("maintain/join", spec);
    EXPECT_EQ(sim.Run(1, kScale, kDeletes).code(), StatusCode::kInternal);
  }
  reference.RefusedTick(kScale, kDeletes);
  expect_match("the refused tick");
  for (int tick = 0; tick < 8; ++tick) {
    ASSERT_TRUE(sim.Run(1, kScale, kDeletes).ok());
    reference.Tick(kScale, kDeletes);
    expect_match("retry tick " + std::to_string(tick));
  }
  const auto verified = sim.VerifyViews();
  ASSERT_TRUE(verified.ok());
  EXPECT_TRUE(*verified);
}

TEST_F(SimulationTest, DuplicateBuyerViewRejected) {
  MarketSimulation sim(&catalog_, 79);
  const ViewKey key(TS({tables_.users, tables_.tweets}));
  ASSERT_TRUE(sim.AddBuyerView(1, key).ok());
  EXPECT_EQ(sim.AddBuyerView(1, key).code(), StatusCode::kAlreadyExists);
}

TEST_F(SimulationTest, ViewSizeReporting) {
  MarketSimulation sim(&catalog_, 80);
  ASSERT_TRUE(
      sim.AddBuyerView(7, ViewKey(TS({tables_.users, tables_.tweets})))
          .ok());
  EXPECT_EQ(sim.ViewSize(7), 0);
  EXPECT_EQ(sim.ViewSize(99), -1);
}

TEST_F(SimulationTest, ZeroScaleAppliesNothing) {
  MarketSimulation sim(&catalog_, 81);
  ASSERT_TRUE(
      sim.AddBuyerView(1, ViewKey(TS({tables_.users, tables_.tweets})))
          .ok());
  ASSERT_TRUE(sim.Run(3, 0.0).ok());
  EXPECT_EQ(sim.updates_applied(), 0u);
}

TEST_F(SimulationTest, RejectsEventsInThePast) {
  const Rig rig = MakeRig(world_);
  RecoveryPlanner recovery(rig.ctx);
  MarketSimulation sim(&catalog_, 82);
  sim.AttachFaultDomain(world_.cluster.get(), &recovery);
  ASSERT_TRUE(sim.Run(2, 0.0).ok());

  // Ticks 0 and -1 have passed; such an event could never fire.
  for (const int tick : {0, -1}) {
    EXPECT_EQ(sim.ScheduleServerFailure(tick, 1).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(sim.ScheduleServerRecovery(tick, 1).code(),
              StatusCode::kInvalidArgument);
  }
  // The current tick is still ahead of the next Run's first step.
  ASSERT_TRUE(sim.ScheduleServerFailure(2, 1).ok());
  ASSERT_TRUE(sim.Run(1, 0.0).ok());
  EXPECT_EQ(sim.recovery_stats().failures, 1);
  EXPECT_FALSE(world_.cluster->is_up(1));
}


// A three-server Twitter market whose simulation has a fault domain.
struct RecoveringMarket {
  explicit RecoveringMarket(const TwitterScenario& world)
      : world(world),
        rig(MakeRig(world)),
        planner(rig.ctx),
        recovery(rig.ctx),
        sim(world.catalog.get(), 84, /*domain_compression=*/1e-4) {
    sim.AttachFaultDomain(world.cluster.get(), &recovery);
  }

  // Admits up to 24 sharings, each with a buyer view, and streams 4 ticks
  // of updates. Views are registered in admission order, so the k-th
  // admitted sharing's view is ViewId k.
  void Admit() {
    TwitterSequenceOptions options;
    options.num_sharings = 24;
    options.max_predicates = 1;
    options.seed = 3;
    for (const Sharing& s :
         GenerateTwitterSequence(*world.catalog, world.tables,
                                 *world.cluster, options)) {
      const auto choice = planner.ProcessSharing(s);
      if (!choice.ok()) continue;
      ASSERT_TRUE(sim.AddBuyerView(choice->id, s.ResultKey()).ok());
      admitted.push_back(choice->id);
    }
    ASSERT_TRUE(sim.Run(/*ticks=*/4, /*scale=*/0.05).ok());
  }

  // Every admitted sharing is in exactly one of the global plan and the
  // parked queue, and its view is active exactly when it is in the plan.
  void ExpectServedIffPlanned() const {
    std::vector<SharingId> parked;
    for (const ParkedSharing& p : recovery.parked()) parked.push_back(p.id);
    for (size_t k = 0; k < admitted.size(); ++k) {
      const bool planned = rig.global_plan->record(admitted[k]) != nullptr;
      EXPECT_NE(planned, std::count(parked.begin(), parked.end(),
                                    admitted[k]) == 1)
          << "sharing " << admitted[k];
      EXPECT_EQ(sim.engine().view_active(k), planned)
          << "sharing " << admitted[k];
    }
    const auto verified = sim.VerifyViews();
    ASSERT_TRUE(verified.ok());
    EXPECT_TRUE(*verified);
  }

  const TwitterScenario& world;
  Rig rig;
  ManagedRiskPlanner planner;
  RecoveryPlanner recovery;
  MarketSimulation sim;
  std::vector<SharingId> admitted;
};

// A failover that fails partway has still parked every victim it did not
// migrate, and none of them may stay served: their views are deactivated,
// and the victims it migrated before the error are counted.
TEST_F(SimulationTest, FailedFailoverDeactivatesEveryParkedView) {
  RecoveringMarket market(world_);
  ASSERT_NO_FATAL_FAILURE(market.Admit());
  MarketSimulation& sim = market.sim;
  const RecoveryPlanner& recovery = market.recovery;
  const size_t victims =
      market.rig.global_plan->SharingsTouchingServer(1).size();
  ASSERT_GE(victims, 4u);

  std::vector<int64_t> sizes;
  for (const SharingId id : market.admitted) sizes.push_back(sim.ViewSize(id));
  ASSERT_TRUE(sim.ScheduleServerFailure(sim.ticks_elapsed(), 1).ok());
  {
    // The third victim's replan fails after two were handled.
    ScopedFault fault("recovery/replan", FaultSpec{1.0, 2, 1});
    EXPECT_EQ(sim.Run(1, 0.05).code(), StatusCode::kInternal);
    EXPECT_EQ(FaultInjector::Global().fires("recovery/replan"), 1);
  }
  ASSERT_GE(recovery.num_parked(), 2u);
  bool parked_had_rows = false;
  for (const ParkedSharing& p : recovery.parked()) {
    const size_t k = static_cast<size_t>(
        std::find(market.admitted.begin(), market.admitted.end(), p.id) -
        market.admitted.begin());
    ASSERT_LT(k, market.admitted.size());
    parked_had_rows |= sizes[k] > 0;
    EXPECT_EQ(sim.ViewSize(p.id), 0) << "sharing " << p.id;
  }
  // Otherwise a view left active would read 0 as well.
  EXPECT_TRUE(parked_had_rows);
  EXPECT_EQ(sim.recovery_stats().parked,
            static_cast<int>(recovery.num_parked()));
  EXPECT_EQ(sim.recovery_stats().migrated + sim.recovery_stats().parked,
            static_cast<int>(victims));
  market.ExpectServedIffPlanned();

  // The server returns: every sharing is re-admitted, its view revived
  // and equal to its recomputation.
  ASSERT_TRUE(sim.ScheduleServerRecovery(sim.ticks_elapsed(), 1).ok());
  ASSERT_TRUE(sim.Run(/*ticks=*/2, /*scale=*/0.05).ok());
  EXPECT_EQ(sim.parked_sharings(), 0u);
  EXPECT_EQ(market.rig.global_plan->num_sharings(), market.admitted.size());
  market.ExpectServedIffPlanned();
}

// Re-admitted sharings are served inside the retry: when reviving the
// batch's views fails, the batch goes back to the parked queue with its
// views inactive, and a later retry serves every sharing.
TEST_F(SimulationTest, FailedRevivalLeavesTheBatchParked) {
  RecoveringMarket market(world_);
  ASSERT_NO_FATAL_FAILURE(market.Admit());
  MarketSimulation& sim = market.sim;
  ASSERT_TRUE(sim.ScheduleServerFailure(sim.ticks_elapsed(), 1).ok());
  ASSERT_TRUE(sim.Run(1, 0.05).ok());
  const size_t parked = market.recovery.num_parked();
  ASSERT_GE(parked, 2u);
  market.ExpectServedIffPlanned();

  const int tick = sim.ticks_elapsed();
  ASSERT_TRUE(sim.ScheduleServerRecovery(tick, 1).ok());
  {
    ScopedFault fault("maintain/fill", FaultSpec{1.0, 0, 1});
    EXPECT_EQ(sim.Run(1, 0.05).code(), StatusCode::kInternal);
    EXPECT_EQ(FaultInjector::Global().fires("maintain/fill"), 1);
  }
  EXPECT_EQ(sim.ticks_elapsed(), tick);
  EXPECT_EQ(market.recovery.num_parked(), parked);
  EXPECT_EQ(sim.recovery_stats().readmitted, 0);
  market.ExpectServedIffPlanned();

  // The server is up and the queue's backoff has elapsed: the next tick
  // re-admits and serves the whole batch.
  ASSERT_TRUE(sim.Run(1, 0.05).ok());
  EXPECT_EQ(sim.parked_sharings(), 0u);
  EXPECT_EQ(sim.recovery_stats().readmitted, static_cast<int>(parked));
  EXPECT_EQ(market.rig.global_plan->num_sharings(), market.admitted.size());
  market.ExpectServedIffPlanned();
}

}  // namespace
}  // namespace dsm
