// Projection support: bag-semantics projection on relations and projected
// materialized views maintained incrementally (the general case of
// Section 4.5 mentions sharings with projections).

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "maintain/delta_engine.h"

namespace dsm {
namespace {

Tuple T(std::initializer_list<int64_t> values) {
  Tuple t;
  for (const int64_t v : values) t.emplace_back(v);
  return t;
}

TEST(ProjectionTest, ProjectSumsMultiplicities) {
  Relation r({"a", "b"});
  r.Apply(T({1, 10}), 1);
  r.Apply(T({1, 20}), 2);
  r.Apply(T({2, 30}), 1);
  const Relation p = r.Project({"a"});
  ASSERT_EQ(p.columns().size(), 1u);
  EXPECT_EQ(p.Count(T({1})), 3);
  EXPECT_EQ(p.Count(T({2})), 1);
}

TEST(ProjectionTest, ProjectReordersColumns) {
  Relation r({"a", "b", "c"});
  r.Apply(T({1, 2, 3}), 1);
  const Relation p = r.Project({"c", "a"});
  ASSERT_EQ(p.columns().size(), 2u);
  EXPECT_EQ(p.columns()[0], "c");
  EXPECT_EQ(p.Count(T({3, 1})), 1);
}

TEST(ProjectionTest, UnknownColumnsDropped) {
  Relation r({"a"});
  r.Apply(T({1}), 1);
  const Relation p = r.Project({"a", "zzz"});
  EXPECT_EQ(p.columns().size(), 1u);
}

TEST(ProjectionTest, NegativeCountsProject) {
  Relation delta({"a", "b"});
  delta.Apply(T({1, 10}), -1);
  delta.Apply(T({1, 20}), 1);
  const Relation p = delta.Project({"a"});
  EXPECT_EQ(p.Count(T({1})), 0);  // -1 + 1 cancels
}

class ProjectedViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto add = [this](const char* name,
                      std::initializer_list<const char*> cols) {
      TableDef def;
      def.name = name;
      for (const char* c : cols) {
        ColumnDef col;
        col.name = c;
        def.columns.push_back(col);
      }
      return *catalog_.AddTable(def);
    };
    r_ = add("R", {"k", "x"});
    s_ = add("S", {"k", "y"});
    engine_ = std::make_unique<DeltaEngine>(&catalog_);
    ASSERT_TRUE(engine_->RegisterBase(r_).ok());
    ASSERT_TRUE(engine_->RegisterBase(s_).ok());
  }

  TableSet RS() const {
    TableSet t;
    t.Add(r_);
    t.Add(s_);
    return t;
  }

  Catalog catalog_;
  TableId r_ = 0, s_ = 0;
  std::unique_ptr<DeltaEngine> engine_;
};

TEST_F(ProjectedViewTest, ProjectedViewMaintained) {
  const ViewId v = *engine_->RegisterView(ViewKey(RS()), {"k", "y"});
  ASSERT_TRUE(engine_->ApplyUpdate(r_, {T({1, 7}), T({1, 8})}, {}).ok());
  ASSERT_TRUE(engine_->ApplyUpdate(s_, {T({1, 5})}, {}).ok());
  // Two (k,x) rows join one (k,y) row: projected view has (1,5) twice.
  EXPECT_EQ(engine_->view(v)->Count(T({1, 5})), 2);
}

TEST_F(ProjectedViewTest, ProjectedViewHandlesDeletes) {
  const ViewId v = *engine_->RegisterView(ViewKey(RS()), {"k", "y"});
  ASSERT_TRUE(engine_->ApplyUpdate(r_, {T({1, 7}), T({1, 8})}, {}).ok());
  ASSERT_TRUE(engine_->ApplyUpdate(s_, {T({1, 5})}, {}).ok());
  ASSERT_TRUE(engine_->ApplyUpdate(r_, {}, {T({1, 7})}).ok());
  // Only (1,8) remains on the R side.
  EXPECT_EQ(engine_->view(v)->Count(T({1, 5})), 1);
}

TEST_F(ProjectedViewTest, ProjectionOutsideTheJoinIsRejected) {
  TableSet r_only;
  r_only.Add(r_);
  const std::vector<std::pair<TableSet, std::vector<std::string>>> bad = {
      {RS(), {"zzz"}},
      {RS(), {"k", "zzz"}},
      {RS(), {"k", "y", "k"}},
      {r_only, {"y"}},  // S's column, outside a view over R alone
  };
  for (const auto& [tables, projection] : bad) {
    const auto id = engine_->RegisterView(ViewKey(tables), projection);
    EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument)
        << projection.back();
  }
  // No state changed: the first valid view is view 0, and its node is new.
  EXPECT_EQ(engine_->num_views(), 0u);
  ASSERT_TRUE(engine_->ApplyUpdate(r_, {T({1, 7})}, {}).ok());
  ASSERT_TRUE(engine_->ApplyUpdate(s_, {T({1, 5})}, {}).ok());
  const auto v = engine_->RegisterView(ViewKey(RS()), {"k"});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 0u);
  EXPECT_EQ(engine_->view(*v)->columns(), std::vector<std::string>{"k"});
  EXPECT_EQ(engine_->view(*v)->Count(T({1})), 1);
}

TEST_F(ProjectedViewTest, IncrementalMatchesRecomputeUnderChurn) {
  const ViewId v = *engine_->RegisterView(ViewKey(RS()), {"y"});
  Rng rng(99);
  std::vector<Tuple> live_r, live_s;
  for (int step = 0; step < 150; ++step) {
    const bool use_r = rng.Bernoulli(0.5);
    auto& live = use_r ? live_r : live_s;
    const TableId table = use_r ? r_ : s_;
    if (!live.empty() && rng.Bernoulli(0.35)) {
      const size_t i = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      ASSERT_TRUE(engine_->ApplyUpdate(table, {}, {live[i]}).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      const Tuple t = T({rng.UniformInt(0, 4), rng.UniformInt(0, 4)});
      ASSERT_TRUE(engine_->ApplyUpdate(table, {t}, {}).ok());
      live.push_back(t);
    }
  }
  const auto expected = engine_->Recompute(ViewKey(RS()), {"y"});
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(engine_->view(v)->BagEquals(*expected));
}

}  // namespace
}  // namespace dsm
