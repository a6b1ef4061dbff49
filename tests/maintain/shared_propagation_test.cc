// Shared delta propagation: exact duplicates share one node, so each update
// round merges once per distinct view, and every node takes its delta from
// one join delta per table set, routed by its predicates. A table set's
// join delta is fed from the largest affected table set it contains, and
// written in the set's column order. SetViewActive flips change which table
// sets are live between rounds; the views a flip batch or a registration
// brings to life are filled from their table set's join, one fill per set.
// Every active view must stay bag-equal to a from-scratch Recompute after
// every round and after every fill.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "maintain/delta_engine.h"
#include "maintain/tuple_store.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dsm {
namespace {

// A chain schema: consecutive tables share one column.
constexpr int kNumTables = 4;

Catalog MakeChainCatalog() {
  Catalog catalog;
  for (int i = 0; i < kNumTables; ++i) {
    TableDef def;
    def.name = "T" + std::to_string(i);
    for (const int c : {i, i + 1}) {
      ColumnDef col;
      col.name = "c" + std::to_string(c);
      col.distinct_values = 6;
      col.min_value = 0;
      col.max_value = 6;
      def.columns.push_back(col);
    }
    *catalog.AddTable(def);
  }
  return catalog;
}

TableSet Chain(int lo, int hi) {
  TableSet tables;
  for (int t = lo; t <= hi; ++t) tables.Add(static_cast<TableId>(t));
  return tables;
}

Predicate Pred(int table, int column, CompareOp op, double value) {
  Predicate p;
  p.table = static_cast<TableId>(table);
  p.column = static_cast<uint16_t>(column);
  p.op = op;
  p.value = value;
  return p;
}

struct Scenario {
  std::vector<ViewKey> views;
  std::vector<std::vector<TableUpdate>> rounds;
  // Views whose active flag flips before each round (empty for round 0),
  // in order: a view listed twice flips back.
  std::vector<std::vector<size_t>> flips;
  // Keys registered before each round, after its flips (empty for round
  // 0, whose registrations are `views`).
  std::vector<std::vector<ViewKey>> registrations;
};

// The key pool the population draws from: every chain window carries its
// unpredicated view and predicated ones, so a window's join feeds an
// unpredicated view exactly while that view is active. Two windows
// ({T2, T3} and {T0..T3}) only ever carry predicated views: their joins
// feed residual filters only.
std::vector<ViewKey> KeyPool() {
  std::vector<ViewKey> pool;
  for (const auto& [lo, hi] :
       std::vector<std::pair<int, int>>{{0, 1}, {1, 2}, {0, 2}, {1, 3}}) {
    pool.push_back(ViewKey(Chain(lo, hi)));
    pool.push_back(ViewKey(Chain(lo, hi), {Pred(lo, 1, CompareOp::kLt, 4)}));
    pool.push_back(ViewKey(Chain(lo, hi), {Pred(hi, 0, CompareOp::kGt, 1),
                                           Pred(hi, 1, CompareOp::kLt, 5)}));
  }
  pool.push_back(ViewKey(Chain(2, 3), {Pred(3, 1, CompareOp::kEq, 2)}));
  pool.push_back(ViewKey(Chain(2, 3), {Pred(2, 0, CompareOp::kGt, 2)}));
  // More predicated views, beside the unpredicated ones on the same tables
  // and alone.
  pool.push_back(ViewKey(Chain(0, 1), {Pred(1, 1, CompareOp::kGt, 2)}));
  pool.push_back(ViewKey(Chain(1, 3), {Pred(2, 0, CompareOp::kLt, 3)}));
  pool.push_back(ViewKey(Chain(0, 2), {Pred(0, 0, CompareOp::kLt, 3)}));
  pool.push_back(ViewKey(Chain(0, 3), {Pred(0, 0, CompareOp::kGt, 1)}));
  pool.push_back(ViewKey(Chain(0, 3), {Pred(3, 1, CompareOp::kLt, 4)}));
  // A single-table view and a predicate on an out-of-range column, which
  // Recompute (and so the residual filter) skips.
  pool.push_back(ViewKey(Chain(1, 1)));
  pool.push_back(ViewKey(Chain(0, 1), {Pred(0, 7, CompareOp::kLt, 2)}));
  return pool;
}

Scenario MakeScenario(uint64_t seed) {
  Rng rng(seed);
  // Registrations draw from a stream of their own, so the views, flips and
  // updates are the ones each seed always drew.
  Rng registration_rng(seed ^ 0x5eed5eed5eed5eedULL);
  Scenario scenario;
  const std::vector<ViewKey> pool = KeyPool();
  // Every key once (in a seeded order), then seeded duplicates.
  std::vector<size_t> order;
  for (size_t k = 0; k < pool.size(); ++k) order.push_back(k);
  for (size_t k = order.size(); k > 1; --k) {
    std::swap(order[k - 1], order[static_cast<size_t>(rng.UniformInt(
                                0, static_cast<int64_t>(k) - 1))]);
  }
  for (const size_t k : order) scenario.views.push_back(pool[k]);
  const int duplicates = 6 + static_cast<int>(rng.UniformInt(0, 6));
  for (int d = 0; d < duplicates; ++d) {
    scenario.views.push_back(pool[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))]);
  }
  // A seeded key held by three more views, each flipped independently of
  // the others: its node must stay live, and right, while any of them is
  // active.
  const size_t clustered = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1));
  std::vector<size_t> cluster;
  for (int d = 0; d < 3; ++d) {
    cluster.push_back(scenario.views.size());
    scenario.views.push_back(pool[clustered]);
  }

  std::vector<std::vector<Tuple>> live(kNumTables);
  const int num_rounds = 8;
  for (int round = 0; round < num_rounds; ++round) {
    std::vector<size_t> flips;
    if (round > 0) {
      const int n = static_cast<int>(rng.UniformInt(0, 4));
      for (int i = 0; i < n; ++i) {
        flips.push_back(static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(scenario.views.size()) - 1)));
      }
      for (const size_t v : cluster) {
        if (rng.Bernoulli(0.4)) flips.push_back(v);
      }
    }
    scenario.flips.push_back(std::move(flips));
    std::vector<ViewKey> registered;
    const int registrations =
        round > 0 ? static_cast<int>(registration_rng.UniformInt(0, 2)) : 0;
    for (int i = 0; i < registrations; ++i) {
      const int64_t k = registration_rng.UniformInt(
          0, static_cast<int64_t>(pool.size()) - 1);
      registered.push_back(pool[static_cast<size_t>(k)]);
    }
    scenario.registrations.push_back(std::move(registered));
    std::vector<TableUpdate> updates;
    for (int t = 0; t < kNumTables; ++t) {
      if (!rng.Bernoulli(0.75)) continue;
      TableUpdate update;
      update.table = static_cast<TableId>(t);
      const int ops = 1 + static_cast<int>(rng.UniformInt(0, 5));
      for (int i = 0; i < ops; ++i) {
        auto& rows = live[static_cast<size_t>(t)];
        if (!rows.empty() && rng.Bernoulli(0.3)) {
          const size_t idx = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(rows.size()) - 1));
          update.deletes.push_back(rows[idx]);
          rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(idx));
        } else {
          Tuple tuple = {Value(rng.UniformInt(0, 5)),
                         Value(rng.UniformInt(0, 5))};
          rows.push_back(tuple);
          update.inserts.push_back(std::move(tuple));
        }
      }
      updates.push_back(std::move(update));
    }
    scenario.rounds.push_back(std::move(updates));
  }
  return scenario;
}

// Every row's stored hash is the hash of its slots, so a filled node's rows
// are found by the hashes later merges look them up by.
void ExpectStoredHashes(const Relation& rel) {
  const TupleStore& rows = rel.store();
  rows.ForEachLive([&](uint32_t r) {
    EXPECT_EQ(rows.row_hash(r),
              HashTupleSlots(rows.row_slots(r), rows.arity()));
  });
}

// Every active view of `ids` (keys `keys`) bag-equals Recompute and
// carries its rows' hashes.
void ExpectActiveViewsMatch(const DeltaEngine& engine,
                            const std::vector<ViewId>& ids,
                            const std::vector<ViewKey>& keys,
                            const std::string& when) {
  for (size_t v = 0; v < ids.size(); ++v) {
    if (!engine.view_active(ids[v])) continue;
    const auto expected = engine.Recompute(keys[v]);
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(engine.view(ids[v])->BagEquals(*expected))
        << "view " << v << " diverged " << when;
    ExpectStoredHashes(*engine.view(ids[v]));
  }
}

// Replays `scenario`, checking every active view against Recompute after
// every fill and every round. Each round's flips are applied as two
// batches, the deactivations and then the activations; an active view
// listed an even number of times is in both (dropped, then filled from
// the unchanged bases). The fills add nothing to work().
void Replay(const Catalog& catalog, const Scenario& scenario) {
  DeltaEngine engine(&catalog);
  for (TableId t = 0; t < catalog.num_tables(); ++t) {
    ASSERT_TRUE(engine.RegisterBase(t).ok());
  }
  std::vector<ViewKey> keys = scenario.views;
  std::vector<ViewId> ids;
  for (const ViewKey& key : keys) {
    const auto id = engine.RegisterView(key);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (size_t r = 0; r < scenario.rounds.size(); ++r) {
    std::vector<bool> active(ids.size());
    for (size_t v = 0; v < ids.size(); ++v) {
      active[v] = engine.view_active(ids[v]);
    }
    std::vector<int> listed(ids.size(), 0);
    for (const size_t v : scenario.flips[r]) ++listed[v];
    std::vector<ViewId> off;
    std::vector<ViewId> on;
    for (size_t v = 0; v < ids.size(); ++v) {
      if (listed[v] == 0) continue;
      const bool target = active[v] != (listed[v] % 2 == 1);
      if (active[v]) off.push_back(ids[v]);
      if (target) on.push_back(ids[v]);
    }
    const uint64_t work = engine.work();
    EXPECT_TRUE(engine.SetViewActive(off, false).ok());
    EXPECT_TRUE(engine.SetViewActive(on, true).ok());
    for (const ViewKey& key : scenario.registrations[r]) {
      const auto id = engine.RegisterView(key);
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
      keys.push_back(key);
    }
    EXPECT_EQ(engine.work(), work) << "fills before round " << r;
    ExpectActiveViewsMatch(engine, ids, keys,
                           "after the fills before round " +
                               std::to_string(r));
    EXPECT_TRUE(engine.ApplyUpdates(scenario.rounds[r]).ok());
    ExpectActiveViewsMatch(engine, ids, keys,
                           "after round " + std::to_string(r));
  }
}

class SharedPropagationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SharedPropagationTest, MatchesRecompute) {
  Replay(MakeChainCatalog(), MakeScenario(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedPropagationTest,
                         ::testing::Values(3, 17, 256, 4099, 65537));

// Deterministic checks of the grouping, through work(): only the one join
// per table set probes, so a duplicate or a predicated view adds no join
// work.
class SharedPropagationWorkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = MakeChainCatalog();
    engine_ = std::make_unique<DeltaEngine>(&catalog_);
    for (TableId t = 0; t < catalog_.num_tables(); ++t) {
      ASSERT_TRUE(engine_->RegisterBase(t).ok());
    }
    // T1 holds (v, 5v mod 6) for v = 0..5: one row per c1 value.
    std::vector<Tuple> rows;
    for (int64_t v = 0; v < 6; ++v) {
      rows.push_back(Tuple{Value(v), Value((v * 5) % 6)});
    }
    ASSERT_TRUE(engine_->ApplyUpdate(1, rows, {}).ok());
  }

  // Join work of one insert (a, 1) into T0: it probes T1 and meets the
  // row (1, 5).
  uint64_t WorkOfOneUpdate(int64_t a) {
    const uint64_t before = engine_->work();
    EXPECT_TRUE(
        engine_->ApplyUpdate(0, {Tuple{Value(a), Value(int64_t{1})}}, {})
            .ok());
    return engine_->work() - before;
  }

  Catalog catalog_;
  std::unique_ptr<DeltaEngine> engine_;
};

TEST_F(SharedPropagationWorkTest, DuplicatesAndResidualFeedsProbeNothing) {
  const ViewKey plain(Chain(0, 1));
  // Keeps T1's row (1, 5), so every update below reaches the view.
  const ViewKey predicated(Chain(0, 1), {Pred(1, 1, CompareOp::kGt, 3)});
  const ViewId t = *engine_->RegisterView(plain);
  const uint64_t alone = WorkOfOneUpdate(0);
  ASSERT_GT(alone, 0u);

  // A duplicate of the plain view and a predicated view on the same join.
  const ViewId dup = *engine_->RegisterView(plain);
  const ViewId p = *engine_->RegisterView(predicated);
  EXPECT_EQ(WorkOfOneUpdate(1), alone);

  // The plain node stays live while either of its views is active, so
  // parking one of them changes nothing; without any, the table set's join
  // still runs once, for the predicated view alone.
  ASSERT_TRUE(engine_->SetViewActive(t, false).ok());
  EXPECT_EQ(WorkOfOneUpdate(2), alone);
  ASSERT_TRUE(engine_->SetViewActive(dup, false).ok());
  EXPECT_EQ(WorkOfOneUpdate(3), alone);

  // Its return changes nothing either.
  ASSERT_TRUE(engine_->SetViewActive(t, true).ok());
  ASSERT_TRUE(engine_->SetViewActive(dup, true).ok());
  EXPECT_EQ(WorkOfOneUpdate(4), alone);

  for (const ViewId id : {t, dup, p}) {
    EXPECT_TRUE(engine_->view(id)->BagEquals(
        *engine_->Recompute(engine_->view_key(id))))
        << "view " << id;
  }
}

TEST_F(SharedPropagationWorkTest, PredicatedViewsWithoutTwinShareOneJoin) {
  const ViewId plain = *engine_->RegisterView(ViewKey(Chain(0, 1)));
  const uint64_t alone = WorkOfOneUpdate(0);
  ASSERT_GT(alone, 0u);
  ASSERT_TRUE(engine_->SetViewActive(plain, false).ok());

  // Different predicates on one table set, and no unpredicated view: both
  // keep the update's join row, and both derive it from one join.
  const ViewKey on_t1(Chain(0, 1), {Pred(1, 1, CompareOp::kGt, 3)});
  const ViewKey on_t0(Chain(0, 1), {Pred(0, 0, CompareOp::kLt, 2)});
  const ViewId a = *engine_->RegisterView(on_t1);
  const ViewId b = *engine_->RegisterView(on_t0);
  EXPECT_EQ(WorkOfOneUpdate(1), alone);
  EXPECT_GT(engine_->view(a)->TotalSize(), 0);
  EXPECT_GT(engine_->view(b)->TotalSize(), 0);
  EXPECT_TRUE(engine_->view(a)->BagEquals(*engine_->Recompute(on_t1)));
  EXPECT_TRUE(engine_->view(b)->BagEquals(*engine_->Recompute(on_t0)));
}

TEST_F(SharedPropagationWorkTest, DuplicatesShareOneNodeAcrossTheirLifecycle) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const auto recomputes = [&registry] {
    return registry.GetCounter("dsm.maintain.recomputes")->value();
  };
  // An empty batch changes nothing but exports the data-plane gauges.
  const auto resident_bytes = [&] {
    EXPECT_TRUE(engine_->ApplyUpdates({}).ok());
    return registry.GetGauge("dsm.maintain.resident_bytes")->value();
  };
  const ViewKey plain(Chain(0, 1));
  const auto matches = [&](ViewId id) {
    return engine_->view(id)->BagEquals(*engine_->Recompute(plain));
  };
  const ViewId a = *engine_->RegisterView(plain);
  const ViewId b = *engine_->RegisterView(plain);
  // Enough rows that the view's store dominates the gauge's other movers.
  std::vector<Tuple> rows;
  for (int64_t v = 0; v < 600; ++v) {
    rows.push_back(Tuple{Value(v), Value(v % 6)});
  }
  ASSERT_TRUE(engine_->ApplyUpdate(0, rows, {}).ok());
  ASSERT_GT(engine_->view(a)->TotalSize(), 0);

  // Parking one duplicate leaves the other maintained; the parked one
  // reads as empty, with the view's columns.
  ASSERT_TRUE(engine_->SetViewActive(a, false).ok());
  WorkOfOneUpdate(1000);
  EXPECT_TRUE(matches(b));
  EXPECT_EQ(engine_->view(a)->TotalSize(), 0);
  EXPECT_EQ(engine_->view(a)->columns(), engine_->view(b)->columns());

  // Its node is still live, so it comes back without a fill.
  uint64_t before = recomputes();
  ASSERT_TRUE(engine_->SetViewActive(a, true).ok());
  EXPECT_EQ(recomputes(), before);
  WorkOfOneUpdate(1001);
  EXPECT_TRUE(matches(a));
  EXPECT_TRUE(matches(b));

  // Parking both drops the node's contents.
  const double live_bytes = resident_bytes();
  ASSERT_TRUE(engine_->SetViewActive(a, false).ok());
  ASSERT_TRUE(engine_->SetViewActive(b, false).ok());
  EXPECT_LT(resident_bytes(), live_bytes);
  WorkOfOneUpdate(1002);

  // Reviving the node fills it once (dsm.maintain.recomputes counts
  // nodes filled); a third duplicate attaches to it without another.
  before = recomputes();
  ASSERT_TRUE(engine_->SetViewActive(a, true).ok());
  EXPECT_EQ(recomputes(), before + 1);
  const ViewId c = *engine_->RegisterView(plain);
  EXPECT_EQ(recomputes(), before + 1);
  WorkOfOneUpdate(1003);
  EXPECT_TRUE(matches(a));
  EXPECT_TRUE(matches(c));
  EXPECT_EQ(engine_->view(b)->TotalSize(), 0);
}

// Sub-join feeds: a table set's join delta is taken from the largest
// affected table set it contains, so only the tables outside that sub-join
// are probed. Checked through work() and the feed counters, with every
// view bag-equal to Recompute after every round.
class SubJoinFeedTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_ = MakeChainCatalog(); }

  // An engine over the chain whose table Ti holds (v, (5v + i) mod 6) and
  // (v, (v + i + 1) mod 6) for v = 0..5: every c value occurs in every
  // column, and each probe meets two rows.
  std::unique_ptr<DeltaEngine> NewEngine() const {
    auto engine = std::make_unique<DeltaEngine>(&catalog_);
    for (TableId t = 0; t < catalog_.num_tables(); ++t) {
      EXPECT_TRUE(engine->RegisterBase(t).ok());
      std::vector<Tuple> rows;
      for (int64_t v = 0; v < 6; ++v) {
        rows.push_back(Tuple{Value(v), Value((5 * v + t) % 6)});
        rows.push_back(Tuple{Value(v), Value((v + t + 1) % 6)});
      }
      EXPECT_TRUE(engine->ApplyUpdate(t, rows, {}).ok());
    }
    return engine;
  }

  static uint64_t WorkOf(DeltaEngine* engine,
                         const std::vector<TableUpdate>& batch) {
    const uint64_t before = engine->work();
    EXPECT_TRUE(engine->ApplyUpdates(batch).ok());
    return engine->work() - before;
  }

  static void ExpectMatchesRecompute(const DeltaEngine& engine) {
    for (ViewId id = 0; id < engine.num_views(); ++id) {
      if (!engine.view_active(id)) continue;
      const auto expected = engine.Recompute(engine.view_key(id));
      ASSERT_TRUE(expected.ok());
      EXPECT_TRUE(engine.view(id)->BagEquals(*expected)) << "view " << id;
    }
  }

  static uint64_t Counter(const char* name) {
    return obs::MetricsRegistry::Global().GetCounter(name)->value();
  }

  Catalog catalog_;
};

TEST_F(SubJoinFeedTest, NestedChainCostsTheLargestJoinAlone) {
  const auto chain = NewEngine();
  for (const int hi : {1, 2, 3}) {
    ASSERT_TRUE(chain->RegisterView(ViewKey(Chain(0, hi))).ok());
  }
  const auto alone = NewEngine();
  ASSERT_TRUE(alone->RegisterView(ViewKey(Chain(0, 3))).ok());

  // One insert per table: the chain's smaller table sets are the prefixes
  // of the largest one's join, so it probes nothing more.
  for (TableId t = 0; t < kNumTables; ++t) {
    const std::vector<TableUpdate> batch = {
        {t, {Tuple{Value(int64_t{t}), Value(int64_t{t + 1})}}, {}}};
    const uint64_t feeds = Counter("dsm.maintain.subjoin_feeds");
    const uint64_t expected = WorkOf(alone.get(), batch);
    ASSERT_GT(expected, 0u) << "table " << t;
    EXPECT_EQ(WorkOf(chain.get(), batch), expected) << "table " << t;
    // T0 and T1 are in all three sets, T2 in two, T3 in one.
    EXPECT_EQ(Counter("dsm.maintain.subjoin_feeds") - feeds,
              t <= 1 ? 2u : t == 2 ? 1u : 0u)
        << "table " << t;
    ExpectMatchesRecompute(*chain);
    ExpectMatchesRecompute(*alone);
  }
}

TEST_F(SubJoinFeedTest, EmptySubJoinDeltaAddsNoWork) {
  // The insert into T1 meets two T0 rows on c1 but no T2 row on c2, so
  // {T1, T2}'s delta is empty and so is the delta of {T0, T1, T2} fed from
  // it. Joined from T1 alone, {T0, T1, T2} probes T0 first.
  const std::vector<TableUpdate> batch = {
      {1, {Tuple{Value(int64_t{1}), Value(int64_t{9})}}, {}}};
  const auto alone = NewEngine();
  ASSERT_TRUE(alone->RegisterView(ViewKey(Chain(0, 2))).ok());
  EXPECT_GT(WorkOf(alone.get(), batch), 0u);

  const auto fed = NewEngine();
  ASSERT_TRUE(fed->RegisterView(ViewKey(Chain(1, 2))).ok());
  ASSERT_TRUE(fed->RegisterView(ViewKey(Chain(0, 2))).ok());
  const uint64_t feeds = Counter("dsm.maintain.subjoin_feeds");
  EXPECT_EQ(WorkOf(fed.get(), batch), 0u);
  EXPECT_EQ(Counter("dsm.maintain.subjoin_feeds") - feeds, 1u);
  ExpectMatchesRecompute(*fed);
  ExpectMatchesRecompute(*alone);
}

TEST_F(SubJoinFeedTest, ParkedSubJoinFallsBackToTheSetsOwnJoin) {
  const auto engine = NewEngine();
  const ViewId sub = *engine->RegisterView(ViewKey(Chain(1, 2)));
  ASSERT_TRUE(engine->RegisterView(ViewKey(Chain(0, 2))).ok());
  ASSERT_TRUE(engine
                  ->RegisterView(ViewKey(Chain(0, 2),
                                         {Pred(0, 0, CompareOp::kGt, 1)}))
                  .ok());
  const auto alone = NewEngine();
  ASSERT_TRUE(alone->RegisterView(ViewKey(Chain(0, 2))).ok());

  // Each round inserts into T0, T1 and T2 and deletes a held T1 row; the
  // updates to T1 and T2 reach {T1, T2}.
  for (int round = 0; round < 4; ++round) {
    const bool parked = round == 1 || round == 2;
    ASSERT_TRUE(engine->SetViewActive(sub, !parked).ok());
    std::vector<TableUpdate> batch;
    for (TableId t = 0; t < 3; ++t) {
      batch.push_back({t, {Tuple{Value(int64_t{round}),
                                 Value(int64_t{(round + t + 3) % 6})}}, {}});
    }
    batch[1].deletes = {Tuple{Value(int64_t{round}),
                              Value(int64_t{(5 * round + 1) % 6})}};
    const uint64_t feeds = Counter("dsm.maintain.subjoin_feeds");
    const uint64_t runs = Counter("dsm.maintain.pipeline_runs");
    const uint64_t work = WorkOf(engine.get(), batch);
    const uint64_t fed = Counter("dsm.maintain.subjoin_feeds") - feeds;
    const uint64_t joins = Counter("dsm.maintain.pipeline_runs") - runs;
    const uint64_t work_alone = WorkOf(alone.get(), batch);
    if (parked) {
      EXPECT_EQ(fed, 0u) << "round " << round;
      EXPECT_EQ(joins, 3u) << "round " << round;
      EXPECT_EQ(work, work_alone) << "round " << round;
    } else {
      EXPECT_EQ(fed, 2u) << "round " << round;
      EXPECT_EQ(joins, 5u) << "round " << round;
    }
    ExpectMatchesRecompute(*engine);
    ExpectMatchesRecompute(*alone);
  }
}

TEST_F(SubJoinFeedTest, FaultAfterTheSubJoinLeavesTheRoundUntouched) {
  const auto engine = NewEngine();
  ASSERT_TRUE(engine->RegisterView(ViewKey(Chain(0, 1))).ok());
  ASSERT_TRUE(engine->RegisterView(ViewKey(Chain(0, 2))).ok());
  ASSERT_TRUE(engine
                  ->RegisterView(ViewKey(Chain(0, 2),
                                         {Pred(2, 1, CompareOp::kLt, 4)}))
                  .ok());
  const auto twin = NewEngine();
  ASSERT_TRUE(twin->RegisterView(ViewKey(Chain(0, 2))).ok());
  const std::vector<TableUpdate> batch = {
      {0, {Tuple{Value(int64_t{2}), Value(int64_t{3})}}, {}}};

  std::vector<Relation> bases;
  for (TableId t = 0; t < kNumTables; ++t) bases.push_back(*engine->base(t));
  std::vector<Relation> views;
  for (ViewId id = 0; id < engine->num_views(); ++id) {
    views.push_back(*engine->view(id));
  }
  const uint64_t work_before = engine->work();
  {
    // The first hit is {T0, T1}'s join, which completes; the second is
    // {T0, T1, T2}'s, fed from it, which fails.
    FaultSpec spec;
    spec.fail_after = 1;
    spec.max_fires = 1;
    ScopedFault fault("maintain/join", spec);
    EXPECT_EQ(engine->ApplyUpdates(batch).code(), StatusCode::kInternal);
    EXPECT_EQ(FaultInjector::Global().hits("maintain/join"), 2);
    EXPECT_EQ(FaultInjector::Global().fires("maintain/join"), 1);
  }
  for (TableId t = 0; t < kNumTables; ++t) {
    EXPECT_TRUE(engine->base(t)->BagEquals(bases[t])) << "table " << t;
  }
  for (ViewId id = 0; id < engine->num_views(); ++id) {
    EXPECT_TRUE(engine->view(id)->BagEquals(views[id])) << "view " << id;
  }
  EXPECT_EQ(engine->work(), work_before);

  // A clean retry applies the round in full.
  EXPECT_EQ(WorkOf(engine.get(), batch), WorkOf(twin.get(), batch));
  EXPECT_GT(engine->view(1)->TotalSize(), views[1].TotalSize());
  ExpectMatchesRecompute(*engine);
}

TEST_F(SubJoinFeedTest, MidChainDeltaIsWrittenInTheSetsColumnOrder) {
  // A delta to T1 or T2 probes outward from the middle of the chain: for
  // T2 the probes meet T1, T0 and then T3, so the join's natural order is
  // (c2, c3, c1, c0, c4) and the last probe has to write the rows in the
  // set's order (c0 .. c4). The predicated views test columns at both
  // ends, whose positions move the most.
  const auto engine = NewEngine();
  ASSERT_TRUE(engine->RegisterView(ViewKey(Chain(0, 3))).ok());
  ASSERT_TRUE(engine
                  ->RegisterView(ViewKey(Chain(0, 3),
                                         {Pred(0, 0, CompareOp::kGt, 1),
                                          Pred(3, 1, CompareOp::kLt, 4)}))
                  .ok());
  ASSERT_TRUE(engine
                  ->RegisterView(ViewKey(Chain(0, 2),
                                         {Pred(2, 1, CompareOp::kEq, 3)}))
                  .ok());
  for (int round = 0; round < 4; ++round) {
    const TableId t = round % 2 == 0 ? 2 : 1;
    std::vector<TableUpdate> batch = {
        {t, {Tuple{Value(int64_t{round}), Value(int64_t{(round + 2) % 6})},
             Tuple{Value(int64_t{(round + 3) % 6}), Value(int64_t{round})}},
         {}}};
    // Every base row of the fixture is held once and deleted at most once.
    batch[0].deletes = {Tuple{Value(int64_t{round}),
                              Value(int64_t{(5 * round + t) % 6})}};
    EXPECT_GT(WorkOf(engine.get(), batch), 0u) << "round " << round;
    ExpectMatchesRecompute(*engine);
  }
  for (ViewId id = 0; id < engine->num_views(); ++id) {
    EXPECT_EQ(engine->view(id)->columns(),
              engine->Recompute(engine->view_key(id))->columns())
        << "view " << id;
  }
}

TEST_F(SubJoinFeedTest, FaultOnTheSecondTableLeavesTheBatchUntouched) {
  const auto engine = NewEngine();
  ASSERT_TRUE(engine->RegisterView(ViewKey(Chain(0, 1))).ok());
  ASSERT_TRUE(engine
                  ->RegisterView(ViewKey(Chain(0, 2),
                                         {Pred(2, 1, CompareOp::kLt, 4)}))
                  .ok());
  const auto twin = NewEngine();
  for (ViewId id = 0; id < engine->num_views(); ++id) {
    ASSERT_TRUE(twin->RegisterView(engine->view_key(id)).ok());
  }
  // T0's round joins {T0, T1} and {T0, T1, T2}; T1's round would join the
  // same two sets, and its first join fails.
  const std::vector<TableUpdate> batch = {
      {0, {Tuple{Value(int64_t{2}), Value(int64_t{3})}},
       {Tuple{Value(int64_t{1}), Value(int64_t{5})}}},
      {1, {Tuple{Value(int64_t{3}), Value(int64_t{4})}},
       {Tuple{Value(int64_t{2}), Value(int64_t{4})}}}};

  std::vector<Relation> bases;
  for (TableId t = 0; t < kNumTables; ++t) bases.push_back(*engine->base(t));
  std::vector<Relation> views;
  for (ViewId id = 0; id < engine->num_views(); ++id) {
    views.push_back(*engine->view(id));
  }
  const uint64_t work_before = engine->work();
  const std::vector<const char*> counters = {
      "dsm.maintain.updates",        "dsm.maintain.view_refreshes",
      "dsm.maintain.pipeline_runs",  "dsm.maintain.subjoin_feeds",
      "dsm.maintain.residual_feeds", "dsm.maintain.routed_rows",
      "dsm.maintain.merged_rows"};
  std::vector<uint64_t> counts;
  for (const char* name : counters) counts.push_back(Counter(name));
  {
    FaultSpec spec;
    spec.fail_after = 2;
    spec.max_fires = 1;
    ScopedFault fault("maintain/join", spec);
    EXPECT_EQ(engine->ApplyUpdates(batch).code(), StatusCode::kInternal);
    EXPECT_EQ(FaultInjector::Global().hits("maintain/join"), 3);
    EXPECT_EQ(FaultInjector::Global().fires("maintain/join"), 1);
  }
  for (TableId t = 0; t < kNumTables; ++t) {
    EXPECT_TRUE(engine->base(t)->BagEquals(bases[t])) << "table " << t;
  }
  for (ViewId id = 0; id < engine->num_views(); ++id) {
    EXPECT_TRUE(engine->view(id)->BagEquals(views[id])) << "view " << id;
  }
  EXPECT_EQ(engine->work(), work_before);
  for (size_t c = 0; c < counters.size(); ++c) {
    EXPECT_EQ(Counter(counters[c]), counts[c]) << counters[c];
  }

  // The deletes are still valid, and a clean retry applies the batch in
  // full.
  EXPECT_EQ(WorkOf(engine.get(), batch), WorkOf(twin.get(), batch));
  for (TableId t = 0; t < kNumTables; ++t) {
    EXPECT_TRUE(engine->base(t)->BagEquals(*twin->base(t))) << "table " << t;
  }
  ExpectMatchesRecompute(*engine);
}

// Fills: the nodes one call brings to life take their rows from one fill
// per table set. Its source is a live unpredicated node over the set, else
// the set's lowest table's base. Checked through dsm.maintain.fill_joins,
// the indexes a fill builds on the bases, and Recompute; no fill adds to
// work().
class FillTest : public SubJoinFeedTest {
 protected:
  // Registers `key`, checks the new view against Recompute and the fill's
  // counters, and returns the fill joins it ran.
  static uint64_t JoinsToRegister(DeltaEngine* engine, const ViewKey& key) {
    const uint64_t joins = Counter("dsm.maintain.fill_joins");
    const uint64_t rows = Counter("dsm.maintain.fill_rows");
    const uint64_t filled = Counter("dsm.maintain.recomputes");
    const uint64_t work = engine->work();
    const auto id = engine->RegisterView(key);
    EXPECT_TRUE(id.ok());
    if (!id.ok()) return 0;
    const Relation& view = *engine->view(*id);
    EXPECT_TRUE(view.BagEquals(*engine->Recompute(key)));
    EXPECT_EQ(view.columns(), engine->Recompute(key)->columns());
    ExpectStoredHashes(view);
    EXPECT_EQ(Counter("dsm.maintain.fill_rows") - rows, view.DistinctSize());
    EXPECT_EQ(Counter("dsm.maintain.recomputes") - filled, 1u);
    EXPECT_EQ(engine->work(), work);
    return Counter("dsm.maintain.fill_joins") - joins;
  }

  static size_t Indexes(const DeltaEngine& engine, TableId t) {
    return engine.base(t)->num_indexes();
  }
};

TEST_F(FillTest, EachSourceFillsWhatRecomputeComputes) {
  const auto engine = NewEngine();
  for (TableId t = 0; t < kNumTables; ++t) ASSERT_EQ(Indexes(*engine, t), 0u);

  // Bases only: T0 is joined with T1 (index on c1), then T2 (on c2).
  const TableSet t012 = Chain(0, 2);
  EXPECT_EQ(JoinsToRegister(engine.get(),
                            ViewKey(t012, {Pred(0, 0, CompareOp::kGt, 1)})),
            1u);
  EXPECT_EQ(Indexes(*engine, 1), 1u);
  EXPECT_EQ(Indexes(*engine, 2), 1u);
  // A live predicated node is no source; once the unpredicated one is
  // live, the set's next nodes are copied or routed from it.
  EXPECT_EQ(JoinsToRegister(engine.get(), ViewKey(t012)), 1u);
  EXPECT_EQ(JoinsToRegister(engine.get(),
                            ViewKey(t012, {Pred(2, 1, CompareOp::kLt, 4)})),
            0u);
  EXPECT_EQ(JoinsToRegister(engine.get(),
                            ViewKey(t012, {Pred(0, 7, CompareOp::kLt, 2)})),
            0u);

  // A single-table set is its base; a predicated view over it is routed
  // from the live unpredicated one.
  EXPECT_EQ(JoinsToRegister(engine.get(), ViewKey(Chain(3, 3))), 1u);
  EXPECT_EQ(JoinsToRegister(engine.get(),
                            ViewKey(Chain(3, 3),
                                    {Pred(3, 0, CompareOp::kEq, 2)})),
            0u);
  EXPECT_EQ(JoinsToRegister(engine.get(),
                            ViewKey(Chain(0, 0),
                                    {Pred(0, 1, CompareOp::kGt, 2)})),
            1u);

  // An empty base empties every set it is in.
  DeltaEngine sparse(&catalog_);
  for (TableId t = 0; t < kNumTables; ++t) {
    ASSERT_TRUE(sparse.RegisterBase(t).ok());
  }
  ASSERT_TRUE(sparse
                  .ApplyUpdate(2, {Tuple{Value(int64_t{1}), Value(int64_t{2})}},
                               {})
                  .ok());
  EXPECT_EQ(JoinsToRegister(&sparse, ViewKey(Chain(2, 3))), 1u);
  EXPECT_EQ(JoinsToRegister(&sparse, ViewKey(Chain(3, 3))), 1u);
  EXPECT_EQ(JoinsToRegister(&sparse,
                            ViewKey(Chain(1, 2),
                                    {Pred(2, 0, CompareOp::kEq, 1)})),
            1u);
  for (ViewId id = 0; id < sparse.num_views(); ++id) {
    EXPECT_EQ(sparse.view(id)->TotalSize(), 0) << "view " << id;
  }
}

TEST_F(FillTest, OneBatchCostsOneFillJoinPerTableSet) {
  const auto engine = NewEngine();
  const TableSet t012 = Chain(0, 2);
  std::vector<ViewId> predicated;
  for (const Predicate& p : {Pred(0, 0, CompareOp::kGt, 1),
                             Pred(1, 1, CompareOp::kLt, 4),
                             Pred(2, 1, CompareOp::kEq, 3)}) {
    predicated.push_back(*engine->RegisterView(ViewKey(t012, {p})));
  }
  const ViewId plain = *engine->RegisterView(ViewKey(t012));
  ASSERT_TRUE(engine->SetViewActive(predicated, false).ok());
  ASSERT_TRUE(engine->SetViewActive(plain, false).ok());

  // Three predicated nodes and no live node over the set: one join feeds
  // all three. Repeated ids flip once.
  std::vector<ViewId> batch = predicated;
  batch.push_back(predicated.front());
  uint64_t joins = Counter("dsm.maintain.fill_joins");
  uint64_t filled = Counter("dsm.maintain.recomputes");
  const uint64_t work = engine->work();
  ASSERT_TRUE(engine->SetViewActive(batch, true).ok());
  EXPECT_EQ(Counter("dsm.maintain.fill_joins") - joins, 1u);
  EXPECT_EQ(Counter("dsm.maintain.recomputes") - filled, 3u);
  EXPECT_EQ(engine->work(), work);
  ExpectMatchesRecompute(*engine);

  // With the unpredicated node live, the set's fills join nothing.
  ASSERT_TRUE(engine->SetViewActive(predicated, false).ok());
  ASSERT_TRUE(engine->SetViewActive(plain, true).ok());
  joins = Counter("dsm.maintain.fill_joins");
  filled = Counter("dsm.maintain.recomputes");
  ASSERT_TRUE(engine->SetViewActive(predicated, true).ok());
  EXPECT_EQ(Counter("dsm.maintain.fill_joins") - joins, 0u);
  EXPECT_EQ(Counter("dsm.maintain.recomputes") - filled, 3u);
  EXPECT_EQ(engine->work(), work);
  ExpectMatchesRecompute(*engine);
  for (ViewId id = 0; id < engine->num_views(); ++id) {
    ExpectStoredHashes(*engine->view(id));
  }

  // One batch over two table sets: one fill each, and both stay exact
  // through the rounds that follow.
  const ViewId sub = *engine->RegisterView(ViewKey(Chain(0, 1)));
  std::vector<ViewId> all = predicated;
  all.push_back(plain);
  all.push_back(sub);
  ASSERT_TRUE(engine->SetViewActive(all, false).ok());
  joins = Counter("dsm.maintain.fill_joins");
  obs::Tracer::Global().Clear();
  ASSERT_TRUE(engine->SetViewActive(all, true).ok());
  EXPECT_EQ(Counter("dsm.maintain.fill_joins") - joins, 2u);
  int fill_spans = 0;
  for (const obs::TraceSpan& span : obs::Tracer::Global().spans()) {
    if (span.name == "maintain/fill") ++fill_spans;
  }
  EXPECT_EQ(fill_spans, 2);
  for (int round = 0; round < 3; ++round) {
    const std::vector<TableUpdate> update = {
        {static_cast<TableId>(round),
         {Tuple{Value(int64_t{round}), Value(int64_t{(round + 4) % 6})}},
         {}}};
    EXPECT_GT(WorkOf(engine.get(), update), 0u) << "round " << round;
    ExpectMatchesRecompute(*engine);
  }
}

TEST_F(FillTest, FailedActivationChangesNothingAndRetries) {
  const auto engine = NewEngine();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  std::vector<ViewId> views = {
      *engine->RegisterView(ViewKey(Chain(0, 1))),
      *engine->RegisterView(
          ViewKey(Chain(0, 1), {Pred(1, 1, CompareOp::kGt, 2)})),
      *engine->RegisterView(ViewKey(Chain(0, 2))),
      *engine->RegisterView(
          ViewKey(Chain(0, 2), {Pred(2, 1, CompareOp::kLt, 4)}))};
  const ViewId live = *engine->RegisterView(ViewKey(Chain(2, 3)));
  ASSERT_TRUE(engine->SetViewActive(views, false).ok());
  // A batch that also holds an already active view.
  views.push_back(live);

  const std::vector<const char*> counters = {
      "dsm.maintain.recomputes", "dsm.maintain.fill_joins",
      "dsm.maintain.fill_rows"};
  std::vector<uint64_t> counts;
  for (const char* name : counters) counts.push_back(Counter(name));
  const double nodes = registry.GetGauge("dsm.maintain.view_nodes")->value();
  const uint64_t work = engine->work();
  const size_t num_views = engine->num_views();
  const auto unchanged = [&](const std::string& when) {
    for (ViewId id = 0; id < engine->num_views(); ++id) {
      EXPECT_EQ(engine->view_active(id), id == live) << "view " << id << when;
      if (id != live) {
        EXPECT_EQ(engine->view(id)->TotalSize(), 0) << "view " << id << when;
      }
    }
    EXPECT_EQ(engine->num_views(), num_views) << when;
    for (size_t c = 0; c < counters.size(); ++c) {
      EXPECT_EQ(Counter(counters[c]), counts[c]) << counters[c] << when;
    }
    EXPECT_EQ(registry.GetGauge("dsm.maintain.view_nodes")->value(), nodes)
        << when;
    EXPECT_EQ(engine->work(), work) << when;
    ExpectMatchesRecompute(*engine);
  };

  {
    // {T0, T1}'s fill completes; {T0, T1, T2}'s fails.
    ScopedFault fault("maintain/fill", FaultSpec{1.0, 1, 1});
    EXPECT_EQ(engine->SetViewActive(views, true).code(),
              StatusCode::kInternal);
    EXPECT_EQ(FaultInjector::Global().hits("maintain/fill"), 2);
    EXPECT_EQ(FaultInjector::Global().fires("maintain/fill"), 1);
  }
  unchanged(" after a failed fill");
  {
    // A registration whose fill fails adds no view.
    ScopedFault fault("maintain/fill", FaultSpec{1.0, 0, 1});
    EXPECT_EQ(engine->RegisterView(ViewKey(Chain(1, 3))).status().code(),
              StatusCode::kInternal);
  }
  unchanged(" after a failed registration");
  std::vector<ViewId> unknown = views;
  unknown.push_back(engine->num_views());
  EXPECT_EQ(engine->SetViewActive(unknown, true).code(),
            StatusCode::kNotFound);
  unchanged(" after an unknown id");

  // The retry fills all four nodes, two fills.
  ASSERT_TRUE(engine->SetViewActive(views, true).ok());
  EXPECT_EQ(Counter("dsm.maintain.recomputes") - counts[0], 4u);
  EXPECT_EQ(Counter("dsm.maintain.fill_joins") - counts[1], 2u);
  EXPECT_EQ(registry.GetGauge("dsm.maintain.view_nodes")->value(), nodes + 4);
  for (const ViewId id : views) {
    EXPECT_TRUE(engine->view_active(id)) << "view " << id;
  }
  ExpectMatchesRecompute(*engine);
  ASSERT_TRUE(engine->RegisterView(ViewKey(Chain(1, 3))).ok());
  ExpectMatchesRecompute(*engine);
}

TEST(SharedPropagationHandleTest, UnknownIdsAreBoundsChecked) {
  const Catalog catalog = MakeChainCatalog();
  DeltaEngine engine(&catalog);
  ASSERT_TRUE(engine.RegisterBase(0).ok());
  const ViewId v = *engine.RegisterView(ViewKey(Chain(0, 0)));
  EXPECT_EQ(engine.view(v + 1), nullptr);
  EXPECT_FALSE(engine.view_active(v + 1));
  EXPECT_TRUE(engine.view_key(v + 1).tables.empty());
  EXPECT_EQ(engine.SetViewActive(v + 1, true).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace dsm
