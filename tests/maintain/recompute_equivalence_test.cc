// Randomized equivalence suite for the cache-reusing maintenance engine:
// for random view populations and random insert/delete streams, the
// batched path must leave every view bag-equal to a from-scratch
// recomputation, and equal to the per-update path.
//
// Two inputs feed it. The integer chain keeps every value an inline slot.
// The mixed-type chain adds a table-local attribute holding strings,
// doubles and wide ints, so churn drives every dictionary path of the
// compact data plane (DESIGN.md §12) through joins, projections and
// merges; it is the engine-level coverage of interned values.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "maintain/delta_engine.h"

namespace dsm {
namespace {

struct ChainShape {
  int num_tables;
  bool attr;  // one extra non-join column per table, of mixed type
};

constexpr ChainShape kIntChain = {4, false};
constexpr ChainShape kMixedChain = {3, true};

// A chain schema: consecutive tables share one integer column, so any
// contiguous table range forms a connected join.
Catalog MakeChainCatalog(ChainShape shape) {
  Catalog catalog;
  for (int i = 0; i < shape.num_tables; ++i) {
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
    if (shape.attr) {
      ColumnDef attr;
      attr.name = "attr" + std::to_string(i);
      attr.distinct_values = 16;
      attr.min_value = 0;
      attr.max_value = 16;
      def.columns.push_back(attr);
    }
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
  // Outer: rounds handed to one ApplyUpdates call. A round may contain
  // several entries for the same table (exercises coalescing).
  std::vector<std::vector<TableUpdate>> rounds;
};

// Appends a predicated view on {T1, T2} and predicates every unpredicated
// view on the same tables, so at least one table set holds only predicated
// views: its join feeds no unpredicated view, only residual filters.
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

Scenario MakeScenario(uint64_t seed, ChainShape shape) {
  Rng rng(seed);
  Scenario scenario;
  const int num_tables = shape.num_tables;

  const int num_views = 2 + static_cast<int>(rng.UniformInt(0, num_tables));
  for (int v = 0; v < num_views; ++v) {
    const int lo = static_cast<int>(rng.UniformInt(0, num_tables - 2));
    const int hi =
        lo + 1 + static_cast<int>(rng.UniformInt(0, num_tables - lo - 2));
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

  std::vector<std::vector<Tuple>> live(static_cast<size_t>(num_tables));
  const int num_rounds = 10;
  for (int round = 0; round < num_rounds; ++round) {
    std::vector<TableUpdate> updates;
    for (int t = 0; t < num_tables; ++t) {
      if (!rng.Bernoulli(0.8)) continue;
      // Occasionally split one table's round into two batch entries.
      const int entries = rng.Bernoulli(0.25) ? 2 : 1;
      for (int e = 0; e < entries; ++e) {
        TableUpdate update;
        update.table = static_cast<TableId>(t);
        const int ops = 1 + static_cast<int>(rng.UniformInt(0, 4));
        for (int i = 0; i < ops; ++i) {
          auto& pool = live[static_cast<size_t>(t)];
          if (!pool.empty() && rng.Bernoulli(0.3)) {
            const size_t idx = static_cast<size_t>(
                rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1));
            update.deletes.push_back(pool[idx]);
            pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(idx));
          } else {
            Tuple tuple = {Value(rng.UniformInt(0, 7)),
                           Value(rng.UniformInt(0, 7))};
            if (shape.attr) tuple.push_back(RandomAttr(rng));
            pool.push_back(tuple);
            update.inserts.push_back(std::move(tuple));
          }
        }
        updates.push_back(std::move(update));
      }
    }
    if (!updates.empty()) scenario.rounds.push_back(std::move(updates));
  }
  return scenario;
}

// Replays `scenario`, checking every view against Recompute at the end;
// returns the views' final contents.
std::vector<Relation> Replay(const Catalog& catalog,
                             const Scenario& scenario) {
  DeltaEngine engine(&catalog);
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
  std::vector<Relation> views;
  for (const ViewId id : ids) {
    // Every incrementally maintained view matches the from-scratch oracle.
    const auto expected = engine.Recompute(engine.view_key(id));
    EXPECT_TRUE(expected.ok());
    EXPECT_TRUE(engine.view(id)->BagEquals(*expected))
        << "view " << id << " diverged";
    views.push_back(*engine.view(id));
  }
  return views;
}

class RecomputeEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, ChainShape>> {
 protected:
  uint64_t seed() const { return std::get<0>(GetParam()); }
  ChainShape shape() const { return std::get<1>(GetParam()); }
};

TEST_P(RecomputeEquivalenceTest, ReplayMatchesRecompute) {
  const Catalog catalog = MakeChainCatalog(shape());
  const Scenario scenario = MakeScenario(seed(), shape());
  ASSERT_FALSE(scenario.rounds.empty());

  Replay(catalog, scenario);
}

TEST_P(RecomputeEquivalenceTest, BatchedMatchesSequentialApplyUpdate) {
  const Catalog catalog = MakeChainCatalog(shape());
  const Scenario scenario = MakeScenario(seed(), shape());

  const std::vector<Relation> batched = Replay(catalog, scenario);

  DeltaEngine sequential(&catalog);
  for (TableId t = 0; t < catalog.num_tables(); ++t) {
    ASSERT_TRUE(sequential.RegisterBase(t).ok());
  }
  std::vector<ViewId> ids;
  for (const ViewKey& key : scenario.views) {
    ids.push_back(*sequential.RegisterView(key));
  }
  for (const std::vector<TableUpdate>& round : scenario.rounds) {
    for (const TableUpdate& update : round) {
      ASSERT_TRUE(
          sequential.ApplyUpdate(update.table, update.inserts, update.deletes)
              .ok());
    }
  }
  ASSERT_EQ(ids.size(), batched.size());
  for (size_t v = 0; v < ids.size(); ++v) {
    EXPECT_TRUE(sequential.view(ids[v])->BagEquals(batched[v]))
        << "view " << v << ": batched and per-update paths diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RecomputeEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 7, 42, 99, 1234, 8675309),
                       ::testing::Values(kIntChain, kMixedChain)),
    [](const auto& info) {
      const bool mixed = std::get<1>(info.param).attr;
      return std::string(mixed ? "MixedChain" : "IntChain") + "_" +
             std::to_string(std::get<0>(info.param));
    });

}  // namespace
}  // namespace dsm
