#include "maintain/delta_engine.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <system_error>

#include "common/rng.h"
#include "obs/metrics.h"

namespace dsm {
namespace {

Tuple T(std::initializer_list<int64_t> values) {
  Tuple t;
  for (const int64_t v : values) t.emplace_back(v);
  return t;
}

TableSet TS(std::initializer_list<TableId> ids) {
  TableSet s;
  for (const TableId id : ids) s.Add(id);
  return s;
}

class DeltaEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto add = [this](const char* name,
                      std::initializer_list<const char*> cols) {
      TableDef def;
      def.name = name;
      for (const char* c : cols) {
        ColumnDef col;
        col.name = c;
        col.distinct_values = 10;
        col.min_value = 0;
        col.max_value = 10;
        def.columns.push_back(col);
      }
      return *catalog_.AddTable(def);
    };
    users_ = add("USERS", {"uid", "age"});
    tweets_ = add("TWEETS", {"tid", "uid"});
    tags_ = add("TAGS", {"tid", "tag"});
  }

  Catalog catalog_;
  TableId users_ = 0, tweets_ = 0, tags_ = 0;
};

TEST_F(DeltaEngineTest, RegisterBaseOnce) {
  DeltaEngine engine(&catalog_);
  ASSERT_TRUE(engine.RegisterBase(users_).ok());
  EXPECT_EQ(engine.RegisterBase(users_).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(engine.RegisterBase(99).code(), StatusCode::kInvalidArgument);
  ASSERT_NE(engine.base(users_), nullptr);
  EXPECT_EQ(engine.base(users_)->columns().size(), 2u);
  EXPECT_EQ(engine.base(tweets_), nullptr);
}

TEST_F(DeltaEngineTest, ViewOverExistingDataInitialized) {
  DeltaEngine engine(&catalog_);
  ASSERT_TRUE(engine.RegisterBase(users_).ok());
  ASSERT_TRUE(engine.RegisterBase(tweets_).ok());
  ASSERT_TRUE(engine.ApplyUpdate(users_, {T({1, 30})}, {}).ok());
  ASSERT_TRUE(engine.ApplyUpdate(tweets_, {T({100, 1})}, {}).ok());

  const auto view = engine.RegisterView(ViewKey(TS({users_, tweets_})));
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(engine.view(*view)->TotalSize(), 1);
}

TEST_F(DeltaEngineTest, InsertPropagatesToView) {
  DeltaEngine engine(&catalog_);
  ASSERT_TRUE(engine.RegisterBase(users_).ok());
  ASSERT_TRUE(engine.RegisterBase(tweets_).ok());
  const ViewId v = *engine.RegisterView(ViewKey(TS({users_, tweets_})));

  ASSERT_TRUE(engine.ApplyUpdate(users_, {T({1, 30}), T({2, 40})}, {}).ok());
  EXPECT_EQ(engine.view(v)->TotalSize(), 0);  // no tweets yet
  ASSERT_TRUE(engine.ApplyUpdate(tweets_, {T({100, 1}), T({101, 1})}, {}).ok());
  EXPECT_EQ(engine.view(v)->TotalSize(), 2);  // uid 1 joined twice
}

TEST_F(DeltaEngineTest, DeletePropagatesToView) {
  DeltaEngine engine(&catalog_);
  ASSERT_TRUE(engine.RegisterBase(users_).ok());
  ASSERT_TRUE(engine.RegisterBase(tweets_).ok());
  const ViewId v = *engine.RegisterView(ViewKey(TS({users_, tweets_})));
  ASSERT_TRUE(engine.ApplyUpdate(users_, {T({1, 30})}, {}).ok());
  ASSERT_TRUE(engine.ApplyUpdate(tweets_, {T({100, 1})}, {}).ok());
  ASSERT_EQ(engine.view(v)->TotalSize(), 1);

  ASSERT_TRUE(engine.ApplyUpdate(tweets_, {}, {T({100, 1})}).ok());
  EXPECT_EQ(engine.view(v)->TotalSize(), 0);
}

TEST_F(DeltaEngineTest, PredicatedViewFiltersUpdates) {
  DeltaEngine engine(&catalog_);
  ASSERT_TRUE(engine.RegisterBase(users_).ok());
  ASSERT_TRUE(engine.RegisterBase(tweets_).ok());
  Predicate p;
  p.table = users_;
  p.column = 1;  // age
  p.op = CompareOp::kGt;
  p.value = 35;
  const ViewId v =
      *engine.RegisterView(ViewKey(TS({users_, tweets_}), {p}));
  ASSERT_TRUE(engine.ApplyUpdate(users_, {T({1, 30}), T({2, 40})}, {}).ok());
  ASSERT_TRUE(engine.ApplyUpdate(tweets_, {T({100, 1}), T({101, 2})}, {}).ok());
  // Only uid 2 (age 40) passes the filter.
  EXPECT_EQ(engine.view(v)->TotalSize(), 1);
}

TEST_F(DeltaEngineTest, ThreeWayViewMaintained) {
  DeltaEngine engine(&catalog_);
  ASSERT_TRUE(engine.RegisterBase(users_).ok());
  ASSERT_TRUE(engine.RegisterBase(tweets_).ok());
  ASSERT_TRUE(engine.RegisterBase(tags_).ok());
  const ViewId v =
      *engine.RegisterView(ViewKey(TS({users_, tweets_, tags_})));
  ASSERT_TRUE(engine.ApplyUpdate(users_, {T({1, 30})}, {}).ok());
  ASSERT_TRUE(engine.ApplyUpdate(tweets_, {T({100, 1})}, {}).ok());
  ASSERT_TRUE(engine.ApplyUpdate(tags_, {T({100, 7}), T({100, 8})}, {}).ok());
  EXPECT_EQ(engine.view(v)->TotalSize(), 2);
}

TEST_F(DeltaEngineTest, ViewOverUnregisteredBaseFails) {
  DeltaEngine engine(&catalog_);
  ASSERT_TRUE(engine.RegisterBase(users_).ok());
  EXPECT_EQ(
      engine.RegisterView(ViewKey(TS({users_, tweets_}))).status().code(),
      StatusCode::kNotFound);
}

TEST_F(DeltaEngineTest, UpdateToUnregisteredBaseFails) {
  DeltaEngine engine(&catalog_);
  EXPECT_EQ(engine.ApplyUpdate(users_, {T({1, 2})}, {}).code(),
            StatusCode::kNotFound);
}

TEST_F(DeltaEngineTest, TuplesOfTheWrongArityAreRejected) {
  // USERS and TWEETS have two columns; WIDE has twenty, so its short tuple
  // still has more values than fit the ingest path's stack buffer.
  TableDef wide_def;
  wide_def.name = "WIDE";
  for (int c = 0; c < 20; ++c) {
    ColumnDef col;
    col.name = "w" + std::to_string(c);
    wide_def.columns.push_back(col);
  }
  const TableId wide = *catalog_.AddTable(wide_def);
  auto wide_tuple = [](size_t arity) {
    Tuple t;
    for (size_t i = 0; i < arity; ++i) t.emplace_back(int64_t{7});
    return t;
  };

  DeltaEngine engine(&catalog_);
  ASSERT_TRUE(engine.RegisterBase(users_).ok());
  ASSERT_TRUE(engine.RegisterBase(tweets_).ok());
  ASSERT_TRUE(engine.RegisterBase(wide).ok());
  const ViewId v = *engine.RegisterView(ViewKey(TS({users_, tweets_})));
  const ViewId w = *engine.RegisterView(ViewKey(TS({wide})));
  ASSERT_TRUE(engine.ApplyUpdate(users_, {T({1, 30})}, {}).ok());
  ASSERT_TRUE(engine.ApplyUpdate(tweets_, {T({100, 1})}, {}).ok());
  ASSERT_TRUE(engine.ApplyUpdate(wide, {wide_tuple(20)}, {}).ok());

  const Relation users_before = *engine.base(users_);
  const Relation tweets_before = *engine.base(tweets_);
  const Relation wide_before = *engine.base(wide);
  const Relation v_before = *engine.view(v);
  const Relation w_before = *engine.view(w);
  const uint64_t work_before = engine.work();
  auto expect_unchanged = [&] {
    EXPECT_TRUE(engine.base(users_)->BagEquals(users_before));
    EXPECT_TRUE(engine.base(tweets_)->BagEquals(tweets_before));
    EXPECT_TRUE(engine.base(wide)->BagEquals(wide_before));
    EXPECT_TRUE(engine.view(v)->BagEquals(v_before));
    EXPECT_TRUE(engine.view(w)->BagEquals(w_before));
    EXPECT_EQ(engine.work(), work_before);
  };

  // Single-table entry point: short and long inserts, a short delete.
  EXPECT_EQ(engine.ApplyUpdate(users_, {T({2})}, {}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.ApplyUpdate(users_, {T({2, 40, 9})}, {}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.ApplyUpdate(users_, {}, {T({1})}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.ApplyUpdate(wide, {wide_tuple(18)}, {}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.ApplyUpdate(wide, {wide_tuple(21)}, {}).code(),
            StatusCode::kInvalidArgument);
  expect_unchanged();

  // Batched entry point: one bad tuple inside a batch of good ones rejects
  // the whole batch before any table is touched — also the good entries
  // that precede it.
  std::vector<TableUpdate> batch(3);
  batch[0].table = users_;
  batch[0].inserts = {T({2, 40}), T({3, 50})};
  batch[1].table = tweets_;
  batch[1].inserts = {T({101, 2}), T({102})};  // the short one
  batch[1].deletes = {T({100, 1})};
  batch[2].table = wide;
  batch[2].inserts = {wide_tuple(20)};
  EXPECT_EQ(engine.ApplyUpdates(batch).code(), StatusCode::kInvalidArgument);
  batch[1].inserts = {T({101, 2})};
  batch[2].deletes = {wide_tuple(19)};
  EXPECT_EQ(engine.ApplyUpdates(batch).code(), StatusCode::kInvalidArgument);
  expect_unchanged();

  // The same batch with well-formed tuples goes through.
  batch[2].deletes.clear();
  ASSERT_TRUE(engine.ApplyUpdates(batch).ok());
  EXPECT_EQ(engine.view(v)->TotalSize(), 1);  // uid 2 joins tweet 101
  EXPECT_EQ(engine.view(w)->TotalSize(), 2);
}

TEST_F(DeltaEngineTest, DeletesBeyondTheBaseAreRejected) {
  DeltaEngine engine(&catalog_);
  ASSERT_TRUE(engine.RegisterBase(users_).ok());
  ASSERT_TRUE(engine.RegisterBase(tweets_).ok());
  const ViewId v = *engine.RegisterView(ViewKey(TS({users_, tweets_})));
  const ViewId u = *engine.RegisterView(ViewKey(TS({users_})));
  ASSERT_TRUE(engine.ApplyUpdate(users_, {T({1, 30}), T({2, 40})}, {}).ok());
  ASSERT_TRUE(engine.ApplyUpdate(tweets_, {T({100, 1}), T({101, 2})}, {}).ok());

  obs::Counter* const batches =
      obs::MetricsRegistry::Global().GetCounter("dsm.maintain.batches");
  const Relation users_before = *engine.base(users_);
  const Relation tweets_before = *engine.base(tweets_);
  const Relation v_before = *engine.view(v);
  const Relation u_before = *engine.view(u);
  const uint64_t work_before = engine.work();
  const uint64_t batches_before = batches->value();
  auto expect_unchanged = [&] {
    EXPECT_TRUE(engine.base(users_)->BagEquals(users_before));
    EXPECT_TRUE(engine.base(tweets_)->BagEquals(tweets_before));
    EXPECT_TRUE(engine.view(v)->BagEquals(v_before));
    EXPECT_TRUE(engine.view(u)->BagEquals(u_before));
    EXPECT_EQ(engine.work(), work_before);
    EXPECT_EQ(batches->value(), batches_before);
  };

  // Single-table entry point: a tuple the base never held, and two copies
  // of a tuple it holds once.
  EXPECT_EQ(engine.ApplyUpdate(users_, {}, {T({3, 50})}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.ApplyUpdate(users_, {}, {T({1, 30}), T({1, 30})}).code(),
            StatusCode::kInvalidArgument);
  expect_unchanged();

  // Batched entry point: each entry deletes the held copy once, so only
  // the coalesced delta goes beyond the base; the good entry before them
  // is not applied either.
  std::vector<TableUpdate> batch(3);
  batch[0].table = users_;
  batch[0].inserts = {T({3, 50})};
  batch[1].table = tweets_;
  batch[1].deletes = {T({100, 1})};
  batch[2].table = tweets_;
  batch[2].deletes = {T({100, 1})};
  EXPECT_EQ(engine.ApplyUpdates(batch).code(), StatusCode::kInvalidArgument);
  expect_unchanged();

  // Coalescing comes first: a delete that cancels an insert of the same
  // batch is no delete at all, and one copy per held copy goes through.
  batch[2].inserts = {T({102, 2})};
  batch[2].deletes = {T({102, 2})};
  ASSERT_TRUE(engine.ApplyUpdates(batch).ok());
  EXPECT_EQ(engine.base(tweets_)->Count(T({100, 1})), 0);
  EXPECT_EQ(engine.base(tweets_)->Count(T({102, 2})), 0);
  EXPECT_EQ(engine.view(v)->TotalSize(), 1);  // uid 2 with tweet 101
  EXPECT_TRUE(engine.view(v)->BagEquals(
      *engine.Recompute(ViewKey(TS({users_, tweets_})))));
  EXPECT_EQ(engine.view(u)->TotalSize(), 3);
}

TEST_F(DeltaEngineTest, WorkCounterAdvances) {
  DeltaEngine engine(&catalog_);
  ASSERT_TRUE(engine.RegisterBase(users_).ok());
  ASSERT_TRUE(engine.RegisterBase(tweets_).ok());
  (void)*engine.RegisterView(ViewKey(TS({users_, tweets_})));
  ASSERT_TRUE(engine.ApplyUpdate(users_, {T({1, 30})}, {}).ok());
  const uint64_t before = engine.work();
  ASSERT_TRUE(engine.ApplyUpdate(tweets_, {T({100, 1})}, {}).ok());
  EXPECT_GT(engine.work(), before);
}

// Threads of this process, or -1 when /proc/self/task is unavailable.
long CountThreads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  return static_cast<long>(
      std::distance(it, std::filesystem::directory_iterator()));
}

// Maintenance is serial: neither constructing an engine nor a round of
// updates over several views starts a thread.
TEST_F(DeltaEngineTest, StartsNoThreads) {
  const long before = CountThreads();
  if (before < 0) GTEST_SKIP() << "/proc/self/task is unavailable";
  DeltaEngine engine(&catalog_);
  ASSERT_TRUE(engine.RegisterBase(users_).ok());
  ASSERT_TRUE(engine.RegisterBase(tweets_).ok());
  ASSERT_TRUE(engine.RegisterView(ViewKey(TS({users_, tweets_}))).ok());
  Predicate older;
  older.table = users_;
  older.column = 1;  // age
  older.op = CompareOp::kGt;
  older.value = 35;
  ASSERT_TRUE(
      engine.RegisterView(ViewKey(TS({users_, tweets_}), {older})).ok());
  std::vector<TableUpdate> round(2);
  round[0].table = users_;
  round[0].inserts = {T({1, 30}), T({2, 40})};
  round[1].table = tweets_;
  round[1].inserts = {T({100, 1}), T({101, 2})};
  ASSERT_TRUE(engine.ApplyUpdates(round).ok());
  EXPECT_EQ(CountThreads(), before);
}

// Property: after any random interleaving of inserts and deletes, the
// incrementally maintained view matches a from-scratch recomputation.
class DeltaEnginePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeltaEnginePropertyTest, IncrementalMatchesRecompute) {
  Catalog catalog;
  auto add = [&catalog](const char* name,
                        std::initializer_list<const char*> cols) {
    TableDef def;
    def.name = name;
    for (const char* c : cols) {
      ColumnDef col;
      col.name = c;
      def.columns.push_back(col);
    }
    return *catalog.AddTable(def);
  };
  const TableId r = add("R", {"k", "x"});
  const TableId s = add("S", {"k", "y"});
  const TableId t = add("T", {"y", "z"});

  DeltaEngine engine(&catalog);
  ASSERT_TRUE(engine.RegisterBase(r).ok());
  ASSERT_TRUE(engine.RegisterBase(s).ok());
  ASSERT_TRUE(engine.RegisterBase(t).ok());

  Predicate p;
  p.table = r;
  p.column = 1;  // x
  p.op = CompareOp::kLt;
  p.value = 4;
  TableSet rs;
  rs.Add(r);
  rs.Add(s);
  TableSet rst = rs;
  rst.Add(t);
  const ViewId v2 = *engine.RegisterView(ViewKey(rs));
  const ViewId v3 = *engine.RegisterView(ViewKey(rst, {p}));

  Rng rng(GetParam());
  // Track inserted tuples so deletes remove real rows.
  std::vector<std::vector<Tuple>> live(3);
  const TableId tables[] = {r, s, t};
  for (int step = 0; step < 120; ++step) {
    const size_t which = static_cast<size_t>(rng.UniformInt(0, 2));
    const TableId table = tables[which];
    if (!live[which].empty() && rng.Bernoulli(0.3)) {
      const size_t idx = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(live[which].size()) - 1));
      ASSERT_TRUE(
          engine.ApplyUpdate(table, {}, {live[which][idx]}).ok());
      live[which].erase(live[which].begin() +
                        static_cast<std::ptrdiff_t>(idx));
    } else {
      const Tuple tuple = T({rng.UniformInt(0, 5), rng.UniformInt(0, 5)});
      ASSERT_TRUE(engine.ApplyUpdate(table, {tuple}, {}).ok());
      live[which].push_back(tuple);
    }
  }

  const auto expect2 = engine.Recompute(engine.view_key(v2));
  ASSERT_TRUE(expect2.ok());
  EXPECT_TRUE(engine.view(v2)->BagEquals(*expect2));
  const auto expect3 = engine.Recompute(engine.view_key(v3));
  ASSERT_TRUE(expect3.ok());
  EXPECT_TRUE(engine.view(v3)->BagEquals(*expect3));
  // Views never go negative.
  engine.view(v3)->ForEachRow(
      [](const Tuple&, int64_t count) { EXPECT_GT(count, 0); });
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaEnginePropertyTest,
                         ::testing::Values(1, 7, 42, 99, 1234, 777, 31337,
                                           2718, 1618, 555));

}  // namespace
}  // namespace dsm
