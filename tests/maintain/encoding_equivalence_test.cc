// Randomized equivalence suite for the compact columnar data plane: for
// random view populations over a string-keyed chain schema and random
// insert/delete churn, the compact engine (DeltaEngineOptions::compact_rows)
// must produce views bag-equal to the legacy row store's, with identical
// measured join work, for every pool size {1, 2, 8}, and every view must
// match its engine's from-scratch Recompute. This is the toggle matrix of
// DESIGN.md §12.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "maintain/delta_engine.h"

namespace dsm {
namespace {

// A chain schema: consecutive tables share one integer column, plus one
// table-local attribute column holding strings / doubles / wide ints, so
// churn exercises every dictionary path (and join outputs carry interned
// values through projections and merges).
constexpr int kNumTables = 3;

Catalog MakeChainCatalog() {
  Catalog catalog;
  for (int i = 0; i < kNumTables; ++i) {
    TableDef def;
    def.name = "T" + std::to_string(i);
    for (const int c : {i, i + 1}) {
      ColumnDef col;
      col.name = "c" + std::to_string(c);
      col.distinct_values = 8;
      col.min_value = 0;
      col.max_value = 8;
      def.columns.push_back(col);
    }
    ColumnDef attr;
    attr.name = "attr" + std::to_string(i);
    attr.distinct_values = 16;
    attr.min_value = 0;
    attr.max_value = 16;
    def.columns.push_back(attr);
    *catalog.AddTable(def);
  }
  return catalog;
}

Value RandomAttr(Rng& rng) {
  switch (rng.UniformInt(0, 3)) {
    case 0:
      return Value("user-" + std::to_string(rng.UniformInt(0, 9)));
    case 1:
      return Value(static_cast<double>(rng.UniformInt(0, 6)) + 0.5);
    case 2:
      return Value((int64_t{1} << 62) + rng.UniformInt(0, 3));  // wide int
    default:
      return Value(rng.UniformInt(0, 9));
  }
}

struct Scenario {
  std::vector<ViewKey> views;
  std::vector<std::vector<TableUpdate>> rounds;
};

// Appends a predicated view on {T1, T2} and predicates every unpredicated
// view on the same tables, so at least one predicated view has no
// unpredicated twin: it runs its own pipeline over a filtered operand
// cache instead of taking a residual feed.
void AddTwinlessPredicatedView(std::vector<ViewKey>* views) {
  TableSet tables;
  tables.Add(1);
  tables.Add(2);
  Predicate p;
  p.table = 2;
  p.column = 1;
  p.op = CompareOp::kLt;
  p.value = 5;
  for (ViewKey& key : *views) {
    if (key.tables == tables && key.unpredicated()) key = ViewKey(tables, {p});
  }
  views->emplace_back(tables, std::vector<Predicate>{p});
}

Scenario MakeScenario(uint64_t seed) {
  Rng rng(seed);
  Scenario scenario;

  const int num_views = 2 + static_cast<int>(rng.UniformInt(0, 3));
  for (int v = 0; v < num_views; ++v) {
    const int lo = static_cast<int>(rng.UniformInt(0, kNumTables - 2));
    const int hi =
        lo + 1 + static_cast<int>(rng.UniformInt(0, kNumTables - lo - 2));
    TableSet tables;
    for (int t = lo; t <= hi; ++t) tables.Add(static_cast<TableId>(t));
    std::vector<Predicate> preds;
    while (rng.Bernoulli(0.5) && preds.size() < 2) {
      Predicate p;
      p.table = static_cast<TableId>(rng.UniformInt(lo, hi));
      p.column = static_cast<uint16_t>(rng.UniformInt(0, 1));
      p.op = rng.Bernoulli(0.5) ? CompareOp::kLt : CompareOp::kGt;
      p.value = static_cast<double>(rng.UniformInt(1, 6));
      preds.push_back(p);
    }
    scenario.views.emplace_back(tables, preds);
  }
  AddTwinlessPredicatedView(&scenario.views);

  std::vector<std::vector<Tuple>> live(kNumTables);
  const int num_rounds = 8;
  for (int round = 0; round < num_rounds; ++round) {
    std::vector<TableUpdate> updates;
    for (int t = 0; t < kNumTables; ++t) {
      if (!rng.Bernoulli(0.8)) continue;
      TableUpdate update;
      update.table = static_cast<TableId>(t);
      const int ops = 1 + static_cast<int>(rng.UniformInt(0, 4));
      for (int i = 0; i < ops; ++i) {
        auto& pool = live[static_cast<size_t>(t)];
        if (!pool.empty() && rng.Bernoulli(0.35)) {
          const size_t idx = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1));
          update.deletes.push_back(pool[idx]);
          pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(idx));
        } else {
          Tuple tuple = {Value(rng.UniformInt(0, 7)),
                         Value(rng.UniformInt(0, 7)), RandomAttr(rng)};
          pool.push_back(tuple);
          update.inserts.push_back(std::move(tuple));
        }
      }
      updates.push_back(std::move(update));
    }
    if (!updates.empty()) scenario.rounds.push_back(std::move(updates));
  }
  return scenario;
}

struct RunOutcome {
  std::vector<Relation> views;
  uint64_t work = 0;
  size_t cached_operands = 0;
};

RunOutcome Replay(const Catalog& catalog, const Scenario& scenario,
                  bool compact_rows, int pool_threads) {
  DeltaEngineOptions options;
  options.compact_rows = compact_rows;
  options.pool.num_threads = pool_threads;
  DeltaEngine engine(&catalog, options);
  for (TableId t = 0; t < catalog.num_tables(); ++t) {
    EXPECT_TRUE(engine.RegisterBase(t).ok());
  }
  std::vector<ViewId> ids;
  for (const ViewKey& key : scenario.views) {
    const auto id = engine.RegisterView(key);
    EXPECT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (const std::vector<TableUpdate>& round : scenario.rounds) {
    EXPECT_TRUE(engine.ApplyUpdates(round).ok());
  }
  RunOutcome outcome;
  outcome.work = engine.work();
  outcome.cached_operands = engine.num_cached_operands();
  for (const ViewId id : ids) {
    // Each engine also matches its own from-scratch oracle.
    const auto expected = engine.Recompute(engine.view_key(id));
    EXPECT_TRUE(expected.ok());
    EXPECT_TRUE(engine.view(id)->BagEquals(*expected))
        << "view " << id << " diverged from recompute (compact="
        << compact_rows << ", threads=" << pool_threads << ")";
    outcome.views.push_back(*engine.view(id));
  }
  return outcome;
}

class EncodingEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EncodingEquivalenceTest, CompactMatchesLegacyAcrossToggleMatrix) {
  const Catalog catalog = MakeChainCatalog();
  const Scenario scenario = MakeScenario(GetParam());
  ASSERT_FALSE(scenario.rounds.empty());

  // The reference: legacy row store, serial.
  const RunOutcome legacy = Replay(catalog, scenario, /*compact_rows=*/false,
                                   /*pool_threads=*/1);
  EXPECT_GT(legacy.cached_operands, 0u);

  for (const int threads : {1, 2, 8}) {
    const RunOutcome compact =
        Replay(catalog, scenario, /*compact_rows=*/true, threads);
    ASSERT_EQ(compact.views.size(), legacy.views.size());
    for (size_t v = 0; v < compact.views.size(); ++v) {
      // Cross-encoding comparison: the compact view must hold the exact
      // bag the legacy engine computed.
      EXPECT_TRUE(compact.views[v].BagEquals(legacy.views[v]))
          << "view " << v << " (threads=" << threads << ")";
    }
    // Work counters are a property of the bags, not the encoding or the
    // pool size.
    EXPECT_EQ(compact.work, legacy.work) << "threads=" << threads;
  }

  // Legacy at a larger pool agrees with itself too (the toggle must not
  // have perturbed the reference path).
  const RunOutcome legacy_parallel =
      Replay(catalog, scenario, /*compact_rows=*/false, /*pool_threads=*/8);
  ASSERT_EQ(legacy_parallel.views.size(), legacy.views.size());
  for (size_t v = 0; v < legacy_parallel.views.size(); ++v) {
    EXPECT_TRUE(legacy_parallel.views[v].BagEquals(legacy.views[v]));
  }
  EXPECT_EQ(legacy_parallel.work, legacy.work);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodingEquivalenceTest,
                         ::testing::Values(11, 23, 4711, 31337));

}  // namespace
}  // namespace dsm
