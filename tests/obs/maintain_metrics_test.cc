// The maintenance engine's shared-propagation counters: per update round,
// every affected view counts one refresh, and each refresh is exactly one
// of a pipeline run, a duplicate feed or a residual feed.

#include <gtest/gtest.h>

#include <string>
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
  DeltaEngineOptions options;
  options.pool.num_threads = 1;
  DeltaEngine engine(&catalog, options);
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
#else
  SUCCEED();
#endif
}

}  // namespace
}  // namespace obs
}  // namespace dsm
