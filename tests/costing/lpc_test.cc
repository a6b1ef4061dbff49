#include "costing/lpc.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "cost/default_cost_model.h"
#include "market/rig.h"
#include "testing/plans.h"
#include "workload/adversarial.h"

namespace dsm {
namespace {

TableSet TS(std::initializer_list<TableId> ids) {
  TableSet s;
  for (const TableId id : ids) s.Add(id);
  return s;
}

TEST(LpcTest, PicksTheCheapestPlan) {
  // Greedy trap: plans cost risky+eps (=100.001) and alt (=10).
  const Scenario sc = MakeGreedyTrap(1, 100.0, 10.0, 1e-3);
  auto rig = MakeRig(sc);
  LpcCalculator lpc(rig.enumerator.get(), sc.model.get());
  const auto value = lpc.Lpc(sc.sharings[0]);
  ASSERT_TRUE(value.ok());
  EXPECT_NEAR(*value, 10.0, 1e-9);
}

TEST(LpcTest, MemoizedAcrossCalls) {
  const Scenario sc = MakeGreedyTrap(1);
  auto rig = MakeRig(sc);
  LpcCalculator lpc(rig.enumerator.get(), sc.model.get());
  const auto first = lpc.Lpc(sc.sharings[0]);
  const auto second = lpc.Lpc(sc.sharings[0]);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(*first, *second);
}

TEST(LpcTest, IndependentOfGlobalPlanState) {
  // LPC is the *standalone* optimum: integrating other sharings first
  // must not change it (no reuse is considered).
  const Scenario sc = MakeGreedyTrap(3, 100.0, 10.0, 1e-3);
  auto rig = MakeRig(sc);
  LpcCalculator lpc(rig.enumerator.get(), sc.model.get());
  const auto before = lpc.Lpc(sc.sharings[1]);
  const auto plans =
      testing_support::EnumerateAll(*rig.enumerator, sc.sharings[0]);
  ASSERT_TRUE(plans.ok());
  ASSERT_TRUE(
      rig.global_plan->AddSharing(1, sc.sharings[0], plans->front()).ok());
  LpcCalculator fresh(rig.enumerator.get(), sc.model.get());
  const auto after = fresh.Lpc(sc.sharings[1]);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_DOUBLE_EQ(*before, *after);
}

TEST(LpcTest, PredicatesNeverRaiseLpcAboveUnfiltered) {
  // With the analytical model, filtering can only shrink intermediate
  // results: LPC(filtered) <= LPC(unfiltered) + filter overhead.
  const Scenario sc = MakeGreedyTrap(1);
  auto rig = MakeRig(sc);
  LpcCalculator lpc(rig.enumerator.get(), sc.model.get());
  const Sharing plain(TS({0, 1, 2}), {}, 0);
  Predicate p;
  p.table = 0;
  p.column = 0;
  p.op = CompareOp::kLt;
  p.value = 500;
  const Sharing filtered(TS({0, 1, 2}), {p}, 0);
  const auto lp = lpc.Lpc(plain);
  const auto lf = lpc.Lpc(filtered);
  ASSERT_TRUE(lp.ok());
  ASSERT_TRUE(lf.ok());
  // TableDrivenCostModel ignores predicates entirely: equal here.
  EXPECT_NEAR(*lf, *lp, 1e-9);
}

TEST(LpcTest, DistinctDestinationsCachedSeparately) {
  Scenario sc = MakeGreedyTrap(1);
  sc.cluster->AddServer("s1");
  auto rig = MakeRig(sc);
  LpcCalculator lpc(rig.enumerator.get(), sc.model.get());
  const Sharing here(sc.sharings[0].tables(), {}, 0);
  const Sharing there(sc.sharings[0].tables(), {}, 1);
  ASSERT_TRUE(lpc.Lpc(here).ok());
  ASSERT_TRUE(lpc.Lpc(there).ok());
  // Same query, different delivery target: both computable (values may
  // coincide under the zero-transfer table model, but must not collide in
  // the cache and crash or cross-contaminate).
  EXPECT_TRUE(lpc.Lpc(here).ok());
}

TEST(LpcTest, HashCollisionsAreNotConfused) {
  // ViewKeyHash mixes (column << 24) ^ bits(value), so a predicate on column
  // 0 with value v and one on column 1 with v's bit 24 flipped hash alike.
  // The two columns have different statistics, so the sharings' LPCs
  // differ, and each must be billed its own.
  Catalog catalog;
  TableDef r;
  r.name = "R";
  ColumnDef uid;
  uid.name = "uid";
  uid.distinct_values = 1000;
  uid.min_value = 0;
  uid.max_value = 1000;
  ColumnDef score;
  score.name = "score";
  score.distinct_values = 100000;
  score.min_value = 0;
  score.max_value = 1000000;
  r.columns = {uid, score};
  r.stats.cardinality = 100000;
  r.stats.update_rate = 100;
  r.stats.tuple_bytes = 100;
  const TableId r_id = *catalog.AddTable(r);
  TableDef s;
  s.name = "S";
  s.columns = {uid};
  s.stats = r.stats;
  const TableId s_id = *catalog.AddTable(s);
  Cluster cluster;
  cluster.AddServer("s0");
  cluster.AddServer("s1");
  ASSERT_TRUE(cluster.PlaceTable(r_id, 0).ok());
  ASSERT_TRUE(cluster.PlaceTable(s_id, 1).ok());
  const JoinGraph graph = JoinGraph::FromCatalog(catalog);
  DefaultCostModel model(&catalog, &cluster);
  const PlanEnumerator enumerator(&catalog, &cluster, &graph, &model);

  const double v = 500.0;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  bits ^= uint64_t{1} << 24;
  double flipped;
  std::memcpy(&flipped, &bits, sizeof(flipped));
  Predicate on_uid;
  on_uid.table = r_id;
  on_uid.column = 0;
  on_uid.op = CompareOp::kLt;
  on_uid.value = v;
  Predicate on_score = on_uid;
  on_score.column = 1;
  on_score.value = flipped;
  const Sharing by_uid(TS({r_id, s_id}), {on_uid}, 0);
  const Sharing by_score(TS({r_id, s_id}), {on_score}, 0);
  ASSERT_EQ(ViewKeyHash()(by_uid.ResultKey()),
            ViewKeyHash()(by_score.ResultKey()));

  LpcCalculator shared(&enumerator, &model);
  for (const Sharing* sharing : {&by_uid, &by_score}) {
    LpcCalculator fresh(&enumerator, &model);
    const auto memoized = shared.Lpc(*sharing);
    const auto expected = fresh.Lpc(*sharing);
    ASSERT_TRUE(memoized.ok());
    ASSERT_TRUE(expected.ok());
    EXPECT_DOUBLE_EQ(*memoized, *expected);
  }
  LpcCalculator a(&enumerator, &model);
  LpcCalculator b(&enumerator, &model);
  EXPECT_NE(*a.Lpc(by_uid), *b.Lpc(by_score));  // the test has teeth
}

}  // namespace
}  // namespace dsm
