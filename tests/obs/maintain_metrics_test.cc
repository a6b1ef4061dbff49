// The maintenance engine's shared-propagation counters: per update round,
// every affected view counts one refresh, and each refresh is exactly one
// of a pipeline run, a duplicate feed or a residual feed. The view_nodes
// gauge counts the distinct (key, projection) pairs some active view holds.

#include <gtest/gtest.h>

#include <set>
#include <string>
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
#ifndef DSM_DISABLE_TELEMETRY
  const Catalog catalog = MakeChainCatalog();
  DeltaEngine engine(&catalog);
  for (TableId t = 0; t < 3; ++t) ASSERT_TRUE(engine.RegisterBase(t).ok());

  Predicate p;
  p.table = 1;
  p.column = 1;
  p.op = CompareOp::kLt;
  p.value = 2;
  const ViewKey twin(Tables({0, 1}));
  ASSERT_TRUE(engine.RegisterView(twin).ok());                 // pipeline
  ASSERT_TRUE(engine.RegisterView(twin).ok());                 // duplicate
  ASSERT_TRUE(engine.RegisterView(ViewKey(twin.tables, {p})).ok());  // residual
  ASSERT_TRUE(engine.RegisterView(twin, {"c1"}).ok());         // pipeline
  ASSERT_TRUE(
      engine.RegisterView(ViewKey(Tables({0, 1, 2}), {p})).ok());  // pipeline
  ASSERT_TRUE(engine.RegisterView(ViewKey(Tables({1, 2}))).ok());  // unaffected

  MetricsRegistry& registry = MetricsRegistry::Global();
  const auto value = [&registry](const char* name) {
    return registry.GetCounter(name)->value();
  };
  const uint64_t refreshes = value("dsm.maintain.view_refreshes");
  const uint64_t pipelines = value("dsm.maintain.pipeline_runs");
  const uint64_t duplicates = value("dsm.maintain.duplicate_feeds");
  const uint64_t residuals = value("dsm.maintain.residual_feeds");

  const Tuple row = {Value(int64_t{1}), Value(int64_t{1})};
  ASSERT_TRUE(engine.ApplyUpdate(0, {row}, {}).ok());

  EXPECT_EQ(value("dsm.maintain.view_refreshes") - refreshes, 5u);
  EXPECT_EQ(value("dsm.maintain.pipeline_runs") - pipelines, 3u);
  EXPECT_EQ(value("dsm.maintain.duplicate_feeds") - duplicates, 1u);
  EXPECT_EQ(value("dsm.maintain.residual_feeds") - residuals, 1u);
  EXPECT_EQ(value("dsm.maintain.view_refreshes") - refreshes,
            value("dsm.maintain.pipeline_runs") - pipelines +
                value("dsm.maintain.duplicate_feeds") - duplicates +
                value("dsm.maintain.residual_feeds") - residuals);
}

TEST(MaintainMetricsTest, ViewNodesGaugeCountsDistinctActiveViews) {
#ifndef DSM_DISABLE_TELEMETRY
  const Catalog catalog = MakeChainCatalog();
  DeltaEngine engine(&catalog);
  for (TableId t = 0; t < 3; ++t) ASSERT_TRUE(engine.RegisterBase(t).ok());

  Predicate p;
  p.table = 1;
  p.column = 1;
  p.op = CompareOp::kLt;
  p.value = 2;
  using Spec = std::pair<ViewKey, std::vector<std::string>>;
  const std::vector<Spec> specs = {
      {ViewKey(Tables({0, 1})), {}},     {ViewKey(Tables({0, 1})), {}},
      {ViewKey(Tables({0, 1}), {p}), {}}, {ViewKey(Tables({0, 1})), {"c1"}},
      {ViewKey(Tables({0, 1})), {"c1"}}, {ViewKey(Tables({1, 2})), {}},
  };
  std::vector<ViewId> ids;
  for (const Spec& spec : specs) {
    ids.push_back(*engine.RegisterView(spec.first, spec.second));
  }
  // The distinct (tables, predicates, projection) of the active views.
  const auto distinct_active = [&] {
    std::set<std::pair<std::pair<uint64_t, std::vector<Predicate>>,
                       std::vector<std::string>>>
        distinct;
    for (size_t v = 0; v < specs.size(); ++v) {
      if (!engine.view_active(ids[v])) continue;
      const ViewKey& key = specs[v].first;
      distinct.insert({{key.tables.mask(), key.predicates}, specs[v].second});
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
#else
  SUCCEED();
#endif
#else
  SUCCEED();
#endif
}

}  // namespace
}  // namespace obs
}  // namespace dsm
