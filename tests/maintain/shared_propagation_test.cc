// Shared delta propagation: exact duplicates share one node, so each update
// round computes and merges one delta per distinct view. Predicated nodes
// take their unpredicated twin's delta through a residual filter, and
// SetViewActive flips re-form the pairing between rounds. Every active view
// must stay bag-equal to a from-scratch Recompute after every round.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "maintain/delta_engine.h"
#include "obs/metrics.h"

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

struct ViewSpec {
  ViewKey key;
  std::vector<std::string> projection;
};

struct Scenario {
  std::vector<ViewSpec> views;
  std::vector<std::vector<TableUpdate>> rounds;
  // Views whose active flag flips before each round (empty for round 0).
  std::vector<std::vector<size_t>> flips;
};

// The key pool the population draws from: every chain window carries its
// unpredicated view and a predicated one, so predicated views have a twin
// exactly while the window's unpredicated view is active; one window
// ({T2, T3}) only ever carries predicated views, which always run their
// own pipeline.
std::vector<ViewSpec> KeyPool() {
  std::vector<ViewSpec> pool;
  for (const auto& [lo, hi] :
       std::vector<std::pair<int, int>>{{0, 1}, {1, 2}, {0, 2}, {1, 3}}) {
    pool.push_back({ViewKey(Chain(lo, hi)), {}});
    pool.push_back(
        {ViewKey(Chain(lo, hi), {Pred(lo, 1, CompareOp::kLt, 4)}), {}});
    pool.push_back({ViewKey(Chain(lo, hi), {Pred(hi, 0, CompareOp::kGt, 1),
                                            Pred(hi, 1, CompareOp::kLt, 5)}),
                    {}});
  }
  pool.push_back({ViewKey(Chain(2, 3), {Pred(3, 1, CompareOp::kEq, 2)}), {}});
  pool.push_back({ViewKey(Chain(2, 3), {Pred(2, 0, CompareOp::kGt, 2)}), {}});
  // Projected views: never twins, never residual-fed.
  pool.push_back({ViewKey(Chain(0, 1)), {"c1"}});
  pool.push_back({ViewKey(Chain(1, 3)), {"c4", "c2"}});
  pool.push_back({ViewKey(Chain(0, 2), {Pred(0, 0, CompareOp::kLt, 3)}),
                  {"c0", "c3"}});
  // A single-table view and a predicate on an out-of-range column, which
  // Recompute (and so the residual filter) skips.
  pool.push_back({ViewKey(Chain(1, 1)), {}});
  pool.push_back({ViewKey(Chain(0, 1), {Pred(0, 7, CompareOp::kLt, 2)}), {}});
  return pool;
}

Scenario MakeScenario(uint64_t seed) {
  Rng rng(seed);
  Scenario scenario;
  const std::vector<ViewSpec> pool = KeyPool();
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

// Replays `scenario`, checking every active view against Recompute after
// every round.
void Replay(const Catalog& catalog, const Scenario& scenario) {
  DeltaEngine engine(&catalog);
  for (TableId t = 0; t < catalog.num_tables(); ++t) {
    ASSERT_TRUE(engine.RegisterBase(t).ok());
  }
  std::vector<ViewId> ids;
  for (const ViewSpec& spec : scenario.views) {
    const auto id = engine.RegisterView(spec.key, spec.projection);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (size_t r = 0; r < scenario.rounds.size(); ++r) {
    for (const size_t v : scenario.flips[r]) {
      EXPECT_TRUE(
          engine.SetViewActive(ids[v], !engine.view_active(ids[v])).ok());
    }
    EXPECT_TRUE(engine.ApplyUpdates(scenario.rounds[r]).ok());
    for (size_t v = 0; v < ids.size(); ++v) {
      if (!engine.view_active(ids[v])) continue;
      const auto expected = engine.Recompute(scenario.views[v].key,
                                             scenario.views[v].projection);
      EXPECT_TRUE(expected.ok());
      EXPECT_TRUE(engine.view(ids[v])->BagEquals(*expected))
          << "view " << v << " diverged after round " << r;
    }
  }
}

class SharedPropagationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SharedPropagationTest, MatchesRecompute) {
  Replay(MakeChainCatalog(), MakeScenario(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedPropagationTest,
                         ::testing::Values(3, 17, 256, 4099, 65537));

// Deterministic checks of the grouping, through work(): only pipelines
// probe, so a duplicate or a residual-fed view adds no join work.
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
  const ViewKey twin(Chain(0, 1));
  // Keeps T1's row (1, 5), so the view's own pipeline probes it too.
  const ViewKey predicated(Chain(0, 1), {Pred(1, 1, CompareOp::kGt, 3)});
  const ViewId t = *engine_->RegisterView(twin);
  const uint64_t alone = WorkOfOneUpdate(0);
  ASSERT_GT(alone, 0u);

  // A duplicate of the twin and a predicated view fed from it.
  const ViewId dup = *engine_->RegisterView(twin);
  const ViewId p = *engine_->RegisterView(predicated);
  EXPECT_EQ(WorkOfOneUpdate(1), alone);

  // The twin's node stays live while either of its views is active, so
  // parking one of them changes nothing; without any, the predicated view
  // runs its own pipeline.
  ASSERT_TRUE(engine_->SetViewActive(t, false).ok());
  EXPECT_EQ(WorkOfOneUpdate(2), alone);
  ASSERT_TRUE(engine_->SetViewActive(dup, false).ok());
  const uint64_t own_pipeline = WorkOfOneUpdate(3);
  EXPECT_GT(own_pipeline, 0u);
  EXPECT_LE(own_pipeline, alone);

  // Back to the residual path once the twin returns.
  ASSERT_TRUE(engine_->SetViewActive(t, true).ok());
  ASSERT_TRUE(engine_->SetViewActive(dup, true).ok());
  EXPECT_EQ(WorkOfOneUpdate(4), alone);

  for (const ViewId id : {t, dup, p}) {
    EXPECT_TRUE(engine_->view(id)->BagEquals(
        *engine_->Recompute(engine_->view_key(id))))
        << "view " << id;
  }
}

TEST_F(SharedPropagationWorkTest, ProjectedViewsRunTheirOwnPipeline) {
  const ViewKey twin(Chain(0, 1));
  ASSERT_TRUE(engine_->RegisterView(twin).ok());
  const uint64_t alone = WorkOfOneUpdate(0);
  // Same key, different projection: a group of its own.
  const ViewId projected = *engine_->RegisterView(twin, {"c2"});
  EXPECT_EQ(WorkOfOneUpdate(1), 2 * alone);
  EXPECT_TRUE(engine_->view(projected)->BagEquals(
      *engine_->Recompute(twin, {"c2"})));
}

TEST_F(SharedPropagationWorkTest, DuplicatesShareOneNodeAcrossTheirLifecycle) {
#ifndef DSM_DISABLE_TELEMETRY
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const auto recomputes = [&registry] {
    return registry.GetCounter("dsm.maintain.recomputes")->value();
  };
  // An empty batch changes nothing but exports the data-plane gauges.
  const auto resident_bytes = [&] {
    EXPECT_TRUE(engine_->ApplyUpdates({}).ok());
    return registry.GetGauge("dsm.maintain.resident_bytes")->value();
  };
  const ViewKey twin(Chain(0, 1));
  const auto matches = [&](ViewId id) {
    return engine_->view(id)->BagEquals(*engine_->Recompute(twin));
  };
  const ViewId a = *engine_->RegisterView(twin);
  const ViewId b = *engine_->RegisterView(twin);
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

  // Its node is still live, so it comes back without a recompute.
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

  // Reviving the node recomputes it once; a third duplicate attaches to
  // it without another.
  before = recomputes();
  ASSERT_TRUE(engine_->SetViewActive(a, true).ok());
  EXPECT_EQ(recomputes(), before + 1);
  const ViewId c = *engine_->RegisterView(twin);
  EXPECT_EQ(recomputes(), before + 1);
  WorkOfOneUpdate(1003);
  EXPECT_TRUE(matches(a));
  EXPECT_TRUE(matches(c));
  EXPECT_EQ(engine_->view(b)->TotalSize(), 0);
#else
  SUCCEED();
#endif
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
