// The maintenance engine's shared-propagation counters: per update round,
// every affected table set runs one join (subjoin_feeds counts those fed
// from an affected sub-join's delta), and every affected view counts
// one refresh, which is exactly one of an unpredicated node, a residual
// feed (a predicated node) or a duplicate feed. The view_nodes gauge counts
// the distinct keys some active view holds. routed_rows and merged_rows
// count the join-delta rows tested against predicated nodes and the rows
// merged into node contents.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "maintain/delta_engine.h"
#include "obs/metrics.h"

namespace dsm {
namespace obs {
namespace {

Catalog MakeChainCatalog() {
  Catalog catalog;
  for (int i = 0; i < 3; ++i) {
    TableDef def;
    def.name = "T" + std::to_string(i);
    for (const int c : {i, i + 1}) {
      ColumnDef col;
      col.name = "c" + std::to_string(c);
      col.distinct_values = 4;
      col.min_value = 0;
      col.max_value = 4;
      def.columns.push_back(col);
    }
    *catalog.AddTable(def);
  }
  return catalog;
}

TableSet Tables(std::initializer_list<TableId> ids) {
  TableSet s;
  for (const TableId id : ids) s.Add(id);
  return s;
}

TEST(MaintainMetricsTest, GroupingCountersPartitionViewRefreshes) {
  const Catalog catalog = MakeChainCatalog();
  DeltaEngine engine(&catalog);
  for (TableId t = 0; t < 3; ++t) ASSERT_TRUE(engine.RegisterBase(t).ok());

  Predicate p;
  p.table = 1;
  p.column = 1;
  p.op = CompareOp::kLt;
  p.value = 2;
  const ViewKey plain(Tables({0, 1}));
  const ViewKey predicated(plain.tables, {p});
  ASSERT_TRUE(engine.RegisterView(plain).ok());                // plain
  ASSERT_TRUE(engine.RegisterView(plain).ok());                // duplicate
  ASSERT_TRUE(engine.RegisterView(predicated).ok());           // residual
  ASSERT_TRUE(
      engine.RegisterView(ViewKey(Tables({0, 1, 2}), {p})).ok());  // residual
  ASSERT_TRUE(engine.RegisterView(ViewKey(Tables({1, 2}))).ok());  // unaffected

  MetricsRegistry& registry = MetricsRegistry::Global();
  const auto value = [&registry](const char* name) {
    return registry.GetCounter(name)->value();
  };
  const uint64_t refreshes = value("dsm.maintain.view_refreshes");
  const uint64_t pipelines = value("dsm.maintain.pipeline_runs");
  const uint64_t duplicates = value("dsm.maintain.duplicate_feeds");
  const uint64_t residuals = value("dsm.maintain.residual_feeds");
  const uint64_t subjoins = value("dsm.maintain.subjoin_feeds");

  const Tuple row = {Value(int64_t{1}), Value(int64_t{1})};
  ASSERT_TRUE(engine.ApplyUpdate(0, {row}, {}).ok());

  // Two table sets, {T0, T1} and {T0, T1, T2}: one join each, the second
  // fed from the first's delta.
  const uint64_t plain_nodes = 1;
  EXPECT_EQ(value("dsm.maintain.view_refreshes") - refreshes, 4u);
  EXPECT_EQ(value("dsm.maintain.pipeline_runs") - pipelines, 2u);
  EXPECT_EQ(value("dsm.maintain.subjoin_feeds") - subjoins, 1u);
  EXPECT_EQ(value("dsm.maintain.duplicate_feeds") - duplicates, 1u);
  EXPECT_EQ(value("dsm.maintain.residual_feeds") - residuals, 2u);
  EXPECT_EQ(value("dsm.maintain.view_refreshes") - refreshes,
            plain_nodes + value("dsm.maintain.duplicate_feeds") - duplicates +
                value("dsm.maintain.residual_feeds") - residuals);
}

TEST(MaintainMetricsTest, SubJoinFeedsCountJoinsFedFromASubJoin) {
  const Catalog catalog = MakeChainCatalog();
  DeltaEngine engine(&catalog);
  for (TableId t = 0; t < 3; ++t) ASSERT_TRUE(engine.RegisterBase(t).ok());
  const ViewId one = *engine.RegisterView(ViewKey(Tables({1})));
  const ViewId pair = *engine.RegisterView(ViewKey(Tables({1, 2})));
  const ViewId dup = *engine.RegisterView(ViewKey(Tables({1, 2})));
  ASSERT_TRUE(engine.RegisterView(ViewKey(Tables({0, 1, 2}))).ok());

  MetricsRegistry& registry = MetricsRegistry::Global();
  const auto value = [&registry](const char* name) {
    return registry.GetCounter(name)->value();
  };
  // Per update to T1: (table-set joins, of them fed from a sub-join, view
  // refreshes).
  const auto round = [&](int64_t v) {
    const uint64_t pipelines = value("dsm.maintain.pipeline_runs");
    const uint64_t subjoins = value("dsm.maintain.subjoin_feeds");
    const uint64_t refreshes = value("dsm.maintain.view_refreshes");
    EXPECT_TRUE(
        engine.ApplyUpdate(1, {Tuple{Value(v), Value(int64_t{1})}}, {}).ok());
    return std::tuple(value("dsm.maintain.pipeline_runs") - pipelines,
                      value("dsm.maintain.subjoin_feeds") - subjoins,
                      value("dsm.maintain.view_refreshes") - refreshes);
  };
  // {T1} joins nothing; T1's own delta feeds {T1, T2} (the first source
  // wins a tie), and {T1, T2}'s delta feeds {T0, T1, T2}.
  EXPECT_EQ(round(0), std::tuple(3u, 1u, 4u));
  // {T1, T2} stays live, and feeding, while either of its views is active.
  ASSERT_TRUE(engine.SetViewActive(pair, false).ok());
  EXPECT_EQ(round(1), std::tuple(3u, 1u, 3u));
  // Without it, {T0, T1, T2} joins T1's delta on its own.
  ASSERT_TRUE(engine.SetViewActive(dup, false).ok());
  EXPECT_EQ(round(2), std::tuple(2u, 0u, 2u));
  ASSERT_TRUE(engine.SetViewActive(one, false).ok());
  EXPECT_EQ(round(3), std::tuple(1u, 0u, 1u));
}

TEST(MaintainMetricsTest, RoutingCountersCountRowsTestedAndMerged) {
  const Catalog catalog = MakeChainCatalog();
  DeltaEngine engine(&catalog);
  for (TableId t = 0; t < 3; ++t) ASSERT_TRUE(engine.RegisterBase(t).ok());
  // T1 holds (1, c2) for c2 = 0..3: every T0 row with c1 = 1 meets four.
  std::vector<Tuple> t1;
  for (int64_t c2 = 0; c2 < 4; ++c2) {
    t1.push_back(Tuple{Value(int64_t{1}), Value(c2)});
  }
  ASSERT_TRUE(engine.ApplyUpdate(1, t1, {}).ok());

  Predicate low_c2;  // T1.c2 < 2: keeps half of each T0 row's matches
  low_c2.table = 1;
  low_c2.column = 1;
  low_c2.op = CompareOp::kLt;
  low_c2.value = 2;
  Predicate high_c0;  // T0.c0 > 5
  high_c0.table = 0;
  high_c0.column = 0;
  high_c0.op = CompareOp::kGt;
  high_c0.value = 5;
  const ViewKey plain(Tables({0, 1}));
  ASSERT_TRUE(engine.RegisterView(plain).ok());
  ASSERT_TRUE(engine.RegisterView(plain).ok());  // duplicate: no rows
  ASSERT_TRUE(engine.RegisterView(ViewKey(plain.tables, {low_c2})).ok());
  ASSERT_TRUE(engine.RegisterView(ViewKey(plain.tables, {high_c0})).ok());

  MetricsRegistry& registry = MetricsRegistry::Global();
  const auto value = [&registry](const char* name) {
    return registry.GetCounter(name)->value();
  };
  // Per update to T0: (rows routed, rows merged).
  const auto round = [&](const std::vector<Tuple>& inserts,
                         const std::vector<Tuple>& deletes) {
    const uint64_t routed = value("dsm.maintain.routed_rows");
    const uint64_t merged = value("dsm.maintain.merged_rows");
    EXPECT_TRUE(engine.ApplyUpdate(0, inserts, deletes).ok());
    return std::tuple(value("dsm.maintain.routed_rows") - routed,
                      value("dsm.maintain.merged_rows") - merged);
  };
  const Tuple low = {Value(int64_t{1}), Value(int64_t{1})};
  const Tuple high = {Value(int64_t{7}), Value(int64_t{1})};
  // Two T0 rows meet four T1 rows each: an 8-row join delta. The plain
  // node merges all 8 untested; each predicated node tests all 8, and
  // low_c2 keeps 2 + 2, high_c0 the 4 of the high row.
  EXPECT_EQ(round({low, high}, {}), std::tuple(16u, 16u));
  // Deleting the high row: a 4-row delta, of which low_c2 keeps 2 and
  // high_c0 all 4.
  EXPECT_EQ(round({}, {high}), std::tuple(8u, 10u));
  // A row that meets nothing: an empty join delta routes nothing.
  EXPECT_EQ(round({Tuple{Value(int64_t{9}), Value(int64_t{3})}}, {}),
            std::tuple(0u, 0u));
}

TEST(MaintainMetricsTest, ViewNodesGaugeCountsDistinctActiveViews) {
  const Catalog catalog = MakeChainCatalog();
  DeltaEngine engine(&catalog);
  for (TableId t = 0; t < 3; ++t) ASSERT_TRUE(engine.RegisterBase(t).ok());

  Predicate p;
  p.table = 1;
  p.column = 1;
  p.op = CompareOp::kLt;
  p.value = 2;
  Predicate q;
  q.table = 0;
  q.column = 0;
  q.op = CompareOp::kGt;
  q.value = 1;
  const std::vector<ViewKey> specs = {
      ViewKey(Tables({0, 1})),      ViewKey(Tables({0, 1})),
      ViewKey(Tables({0, 1}), {p}), ViewKey(Tables({0, 1}), {q}),
      ViewKey(Tables({0, 1}), {q}), ViewKey(Tables({1, 2})),
  };
  std::vector<ViewId> ids;
  for (const ViewKey& key : specs) ids.push_back(*engine.RegisterView(key));
  // The distinct (tables, predicates) of the active views.
  const auto distinct_active = [&] {
    std::set<std::pair<uint64_t, std::vector<Predicate>>> distinct;
    for (size_t v = 0; v < specs.size(); ++v) {
      if (!engine.view_active(ids[v])) continue;
      distinct.insert({specs[v].tables.mask(), specs[v].predicates});
    }
    return static_cast<double>(distinct.size());
  };
  Gauge* const nodes = MetricsRegistry::Global().GetGauge(
      "dsm.maintain.view_nodes");
  const auto gauge = [nodes] { return nodes->value(); };
  EXPECT_EQ(gauge(), 4.0);
  EXPECT_EQ(gauge(), distinct_active());
  // Parking views one at a time: a node leaves the count with its last
  // active view, and comes back with its first.
  for (const size_t v : {0u, 3u, 1u, 5u, 4u}) {
    ASSERT_TRUE(engine.SetViewActive(ids[v], false).ok());
    EXPECT_EQ(gauge(), distinct_active()) << "after parking view " << v;
  }
  EXPECT_EQ(gauge(), 1.0);
  ASSERT_TRUE(engine.SetViewActive(ids[1], true).ok());
  EXPECT_EQ(gauge(), 2.0);
  EXPECT_EQ(gauge(), distinct_active());
}

}  // namespace
}  // namespace obs
}  // namespace dsm
