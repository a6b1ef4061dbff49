#include "plan/enumerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cost/table_cost_model.h"
#include "market/rig.h"
#include "testing/plans.h"
#include "workload/predicate_gen.h"
#include "workload/synthetic.h"
#include "workload/twitter.h"

namespace dsm {
namespace {

TableSet TS(std::initializer_list<TableId> ids) {
  TableSet s;
  for (const TableId id : ids) s.Add(id);
  return s;
}

TableDef SimpleTable(const std::string& name, const std::string& key) {
  TableDef def;
  def.name = name;
  ColumnDef col;
  col.name = key;
  col.distinct_values = 100;
  col.min_value = 0;
  col.max_value = 100;
  def.columns = {col};
  def.stats.cardinality = 100;
  def.stats.update_rate = 1;
  return def;
}

class EnumeratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Path graph a - b - c on one server.
    a_ = *catalog_.AddTable(SimpleTable("a", "k1"));
    b_ = *catalog_.AddTable(SimpleTable("b", "k1"));
    c_ = *catalog_.AddTable(SimpleTable("c", "k2"));
    // b also has k2 so b-c joinable; rebuild b with both columns.
    catalog_.mutable_table(b_).columns.push_back(
        SimpleTable("x", "k2").columns[0]);
    cluster_.AddServer("s0");
    cluster_.PlaceRoundRobin(catalog_.num_tables());
    graph_ = std::make_unique<JoinGraph>(JoinGraph::FromCatalog(catalog_));
  }

  PlanEnumerator MakeEnumerator(EnumeratorOptions options = {}) {
    return PlanEnumerator(&catalog_, &cluster_, graph_.get(), &model_,
                          options);
  }

  Catalog catalog_;
  Cluster cluster_;
  std::unique_ptr<JoinGraph> graph_;
  TableDrivenCostModel model_;
  TableId a_ = 0, b_ = 0, c_ = 0;
};

TEST_F(EnumeratorTest, PathGraphHasTwoJoinOrders) {
  // (a,b,c) over a-b-c admits exactly (ab)c and a(bc); (ac)b is not
  // connected. Single server, no predicates -> exactly 2 plans.
  const PlanEnumerator e = MakeEnumerator();
  const auto plans =
      testing_support::EnumerateAll(e, Sharing(TS({a_, b_, c_}), {}, 0));
  ASSERT_TRUE(plans.ok());
  EXPECT_EQ(plans->size(), 2u);
  for (const SharingPlan& p : *plans) {
    EXPECT_EQ(p.root().key.tables, TS({a_, b_, c_}));
    EXPECT_EQ(p.root().server, 0u);
  }
}

TEST_F(EnumeratorTest, TwoTableSharingHasOnePlan) {
  const PlanEnumerator e = MakeEnumerator();
  const auto plans =
      testing_support::EnumerateAll(e, Sharing(TS({a_, b_}), {}, 0));
  ASSERT_TRUE(plans.ok());
  EXPECT_EQ(plans->size(), 1u);
  EXPECT_EQ((*plans)[0].nodes.size(), 3u);  // two leaves + join
}

TEST_F(EnumeratorTest, SingleTableSharing) {
  const PlanEnumerator e = MakeEnumerator();
  const auto plans = testing_support::EnumerateAll(e, Sharing(TS({a_}), {}, 0));
  ASSERT_TRUE(plans.ok());
  ASSERT_EQ(plans->size(), 1u);
  // Leaf only: already at the destination with no predicates.
  EXPECT_EQ((*plans)[0].nodes.size(), 1u);
}

TEST_F(EnumeratorTest, DisconnectedSharingRejected) {
  const PlanEnumerator e = MakeEnumerator();
  const auto plans =
      testing_support::EnumerateAll(e, Sharing(TS({a_, c_}), {}, 0));
  EXPECT_EQ(plans.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EnumeratorTest, PredicatePlacementDoublesPlans) {
  Predicate p;
  p.table = a_;
  p.column = 0;
  p.op = CompareOp::kLt;
  p.value = 50;
  const PlanEnumerator e = MakeEnumerator();
  const auto plans =
      testing_support::EnumerateAll(e, Sharing(TS({a_, b_}), {p}, 0));
  ASSERT_TRUE(plans.ok());
  // Pushdown to the leaf vs applied at the root.
  EXPECT_EQ(plans->size(), 2u);
}

TEST_F(EnumeratorTest, PredicateOffTheTablesAddsNoPlans) {
  // A predicate on c pushes down nowhere in a sharing over {a, b}: both
  // pushdown choices reach the same slot over {a, b}, and the second
  // repeats no plan of the first.
  Predicate p;
  p.table = c_;
  p.column = 0;
  p.op = CompareOp::kLt;
  p.value = 50;
  const PlanEnumerator e = MakeEnumerator();
  const auto plans =
      testing_support::EnumerateAll(e, Sharing(TS({a_, b_}), {p}, 0));
  ASSERT_TRUE(plans.ok());
  EXPECT_EQ(plans->size(), 1u);
}

TEST_F(EnumeratorTest, AllPlansDeliverResultKeyAtDestination) {
  Predicate p;
  p.table = b_;
  p.column = 0;
  p.op = CompareOp::kGt;
  p.value = 10;
  const Sharing sharing(TS({a_, b_, c_}), {p}, 0);
  const PlanEnumerator e = MakeEnumerator();
  const auto plans = testing_support::EnumerateAll(e, sharing);
  ASSERT_TRUE(plans.ok());
  ASSERT_FALSE(plans->empty());
  for (const SharingPlan& plan : *plans) {
    EXPECT_EQ(plan.root().key, sharing.ResultKey());
    EXPECT_EQ(plan.root().server, sharing.destination());
  }
}

TEST_F(EnumeratorTest, MaxPlansCap) {
  Predicate p;
  p.table = a_;
  p.column = 0;
  p.op = CompareOp::kLt;
  p.value = 50;
  EnumeratorOptions options;
  options.max_plans = 1;
  const PlanEnumerator e = MakeEnumerator(options);
  const auto plans =
      testing_support::EnumerateAll(e, Sharing(TS({a_, b_, c_}), {p}, 0));
  ASSERT_TRUE(plans.ok());
  EXPECT_EQ(plans->size(), 1u);
}

TEST_F(EnumeratorTest, BeamRequiresCostModel) {
  EnumeratorOptions options;
  options.per_subset_cap = 1;
  PlanEnumerator e(&catalog_, &cluster_, graph_.get(), nullptr, options);
  const auto plans =
      testing_support::EnumerateAll(e, Sharing(TS({a_, b_}), {}, 0));
  EXPECT_EQ(plans.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EnumeratorTest, BeamKeepsCheapestPlan) {
  // Make a(bc) far cheaper than (ab)c and beam to one fragment per subset.
  model_.SetJoinCost(TS({a_}), TS({b_}), 1000.0);
  model_.SetJoinCost(TS({a_, b_}), TS({c_}), 1000.0);
  model_.SetJoinCost(TS({b_}), TS({c_}), 1.0);
  model_.SetJoinCost(TS({a_}), TS({b_, c_}), 1.0);
  EnumeratorOptions options;
  options.per_subset_cap = 1;
  const PlanEnumerator e = MakeEnumerator(options);
  const auto plans =
      testing_support::EnumerateAll(e, Sharing(TS({a_, b_, c_}), {}, 0));
  ASSERT_TRUE(plans.ok());
  ASSERT_EQ(plans->size(), 1u);
  EXPECT_NEAR(PlanCost((*plans)[0], &model_), 2.0, 1e-9);
}

TEST_F(EnumeratorTest, EmptySharingRejected) {
  const PlanEnumerator e = MakeEnumerator();
  EXPECT_EQ(e.Enumerate(Sharing(TableSet(), {}, 0)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(EnumeratorTest, ManyPredicatesKeepFullPushdownMask) {
  // With > 12 predicates the enumerator falls back to the two extreme
  // placements. The all-pushed-down choice must cover *every* predicate —
  // a narrow mask would silently leave predicates 13+ at the root.
  std::vector<Predicate> preds;
  for (int i = 0; i < 14; ++i) {
    Predicate p;
    p.table = a_;
    p.column = 0;
    p.op = CompareOp::kLt;
    p.value = 99 - i;
    preds.push_back(p);
  }
  const PlanEnumerator e = MakeEnumerator();
  const auto plans =
      testing_support::EnumerateAll(e, Sharing(TS({a_, b_}), preds, 0));
  ASSERT_TRUE(plans.ok());
  size_t max_leaf_preds = 0;
  for (const SharingPlan& plan : *plans) {
    for (const PlanNode& n : plan.nodes) {
      if (n.type == PlanNodeType::kLeaf && n.base_table == a_) {
        max_leaf_preds = std::max(max_leaf_preds, n.key.predicates.size());
      }
    }
  }
  EXPECT_EQ(max_leaf_preds, preds.size());
}

TEST(EnumeratorMultiServerTest, ServerPlacementsEnumerated) {
  // Two tables on different servers, destination on a third: the join can
  // run at either home or the destination -> 3 plans.
  Catalog catalog;
  TableDef a = SimpleTable("a", "k");
  TableDef b = SimpleTable("b", "k");
  Cluster cluster;
  cluster.AddServer("s0");
  cluster.AddServer("s1");
  cluster.AddServer("s2");
  const TableId ta = *catalog.AddTable(a);
  const TableId tb = *catalog.AddTable(b);
  ASSERT_TRUE(cluster.PlaceTable(ta, 0).ok());
  ASSERT_TRUE(cluster.PlaceTable(tb, 1).ok());
  const JoinGraph graph = JoinGraph::FromCatalog(catalog);
  TableDrivenCostModel model;
  PlanEnumerator e(&catalog, &cluster, &graph, &model, {});
  const auto plans =
      testing_support::EnumerateAll(e, Sharing(TS({ta, tb}), {}, 2));
  ASSERT_TRUE(plans.ok());
  EXPECT_EQ(plans->size(), 3u);
  // Every plan ends at the destination server.
  for (const SharingPlan& p : *plans) {
    EXPECT_EQ(p.root().server, 2u);
  }
}

// Every pushdown choice of p distinct predicates yields its own copy of
// the unpredicated plan space (same trees, keys carrying the pushed
// predicates), so the plan count is exactly 2^p times the unpredicated
// one. The predicates are built, not drawn, so no two coincide: the
// first on each member table in turn, the second on the next member.
TEST(EnumeratorPushdownTest, DistinctPredicatesMultiplyTwitterPlans) {
  // The 25 Twitter base queries over 4 round-robin servers, and an
  // enumerator at its defaults.
  const TwitterScenario world = MakeTwitterScenario(4);
  const Rig rig = MakeRig(world);
  const PlanEnumerator& e = *rig.enumerator;
  const std::vector<Sharing> base =
      TwitterBaseSharings(world.tables, *world.cluster);
  for (size_t q = 0; q < base.size(); ++q) {
    const auto unpredicated = e.Enumerate(base[q]);
    ASSERT_TRUE(unpredicated.ok());
    const std::vector<TableId> members = base[q].tables().ToVector();
    for (size_t first = 0; first < members.size(); ++first) {
      std::vector<Predicate> preds;
      for (size_t p = 1; p <= 2; ++p) {
        Predicate pred;
        pred.table = members[(first + p - 1) % members.size()];
        pred.column = 0;
        pred.op = CompareOp::kGt;
        pred.value = 10.0 * static_cast<double>(p);
        preds.push_back(pred);
        const Sharing sharing(base[q].tables(), preds, base[q].destination());
        ASSERT_EQ(sharing.predicates().size(), p);
        const auto space = e.Enumerate(sharing);
        ASSERT_TRUE(space.ok());
        EXPECT_EQ(space->size(), (size_t{1} << p) * unpredicated->size())
            << "query " << q << ", " << p << " predicates from member "
            << first;
      }
    }
  }
}

// Enumeration order is part of every decision: MANAGEDRISK's sort breaks
// score ties by it, and a TableDrivenCostModel draws its costs in it. The
// plan count and an order-sensitive digest of Materialize(0..n-1) are
// pinned for each of the 25 Twitter base queries with 0, 1 and 2 random
// predicates, and for three star sharings. On a mismatch the failure
// prints the actual pin as a literal to paste in.
struct PinnedOrder {
  size_t plans;
  uint64_t digest;
};

std::string Literal(const PinnedOrder& pin) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "{%zu, 0x%016" PRIx64 "ULL}", pin.plans,
                pin.digest);
  return buf;
}

// boost::hash_combine-style hash of one plan's node array: each node's
// type, key hash, server and children.
uint64_t PlanDigest(const SharingPlan& plan) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  const ViewKeyHash key_hash;
  for (const PlanNode& n : plan.nodes) {
    mix(static_cast<uint64_t>(n.type));
    mix(key_hash(n.key));
    mix(n.server);
    mix(static_cast<uint64_t>(static_cast<int64_t>(n.left)) * 31 +
        static_cast<uint64_t>(static_cast<int64_t>(n.right)));
  }
  return h;
}

// The space's pin as a literal, e.g. "{1068, 0x7ad3c67bf6fa7a90ULL}".
std::string OrderPin(const PlanSpace& space) {
  uint64_t digest = 0;
  for (size_t k = 0; k < space.size(); ++k) {
    digest = digest * 0x100000001b3ULL ^ PlanDigest(space.Materialize(k));
  }
  return Literal(PinnedOrder{space.size(), digest});
}

TEST(EnumerationOrderTest, TwitterBaseQueriesKeepPinnedOrder) {
  constexpr PinnedOrder kPinned[] = {
    {1, 0x5b95d7db3a63048fULL},  // query 0, 0 predicates
    {2, 0x981f0d17ae9eabc9ULL},  // query 0, 1 predicate
    {4, 0x797eaab9a3f2d8d8ULL},  // query 0, 2 predicates
    {15, 0x6c3f7d347871d2beULL},  // query 1, 0 predicates
    {30, 0xb824202a4265d769ULL},  // query 1, 1 predicate
    {60, 0xf673d256f8900945ULL},  // query 1, 2 predicates
    {19, 0xfbdc27f986cd16f7ULL},  // query 2, 0 predicates
    {38, 0xba69c5e072440de1ULL},  // query 2, 1 predicate
    {76, 0xd8aaf53b5b3b2544ULL},  // query 2, 2 predicates
    {267, 0x18a809777ee0e8a9ULL},  // query 3, 0 predicates
    {534, 0x5907865e6a48947fULL},  // query 3, 1 predicate
    {1068, 0xcc01497afac3286aULL},  // query 3, 2 predicates
    {2, 0x87a257a77b3b648dULL},  // query 4, 0 predicates
    {4, 0xacb99981820113bdULL},  // query 4, 1 predicate
    {8, 0x3da1dacdeeee9b31ULL},  // query 4, 2 predicates
    {2, 0x76859a5527385a1cULL},  // query 5, 0 predicates
    {4, 0xaed6bbe69134bb5cULL},  // query 5, 1 predicate
    {8, 0x40a0d90bc86471deULL},  // query 5, 2 predicates
    {2, 0x7c91de66585810e6ULL},  // query 6, 0 predicates
    {4, 0xb15c964de6b2c437ULL},  // query 6, 1 predicate
    {8, 0x91ac141fc90ddac0ULL},  // query 6, 2 predicates
    {3, 0x50d05013cb594b8fULL},  // query 7, 0 predicates
    {6, 0xfd5ade9990c8be64ULL},  // query 7, 1 predicate
    {12, 0x006f82650c2cf8f3ULL},  // query 7, 2 predicates
    {3, 0x77409f960cc07ce2ULL},  // query 8, 0 predicates
    {6, 0xff473d83a72412b8ULL},  // query 8, 1 predicate
    {12, 0xaa2b27f635d82284ULL},  // query 8, 2 predicates
    {2, 0xef82fd33c6aa5e76ULL},  // query 9, 0 predicates
    {4, 0x0bacca806dd7d26aULL},  // query 9, 1 predicate
    {8, 0x5dac695c646e000aULL},  // query 9, 2 predicates
    {105, 0x2d9e7258d28d8731ULL},  // query 10, 0 predicates
    {210, 0xfe6f151835803fa1ULL},  // query 10, 1 predicate
    {420, 0x024db90eceeb53cbULL},  // query 10, 2 predicates
    {24, 0x18de6faf9ca0e07cULL},  // query 11, 0 predicates
    {48, 0x62ebc23635357312ULL},  // query 11, 1 predicate
    {96, 0x4f68af9e01d1363aULL},  // query 11, 2 predicates
    {192, 0xd92c92dc95bb5bd8ULL},  // query 12, 0 predicates
    {384, 0xba4c2d0c04f969d8ULL},  // query 12, 1 predicate
    {768, 0x5433b02c976de019ULL},  // query 12, 2 predicates
    {2, 0x6860e4444c717722ULL},  // query 13, 0 predicates
    {4, 0x4f90ff08274379a8ULL},  // query 13, 1 predicate
    {8, 0x793168d140783a79ULL},  // query 13, 2 predicates
    {192, 0xd43c15ad30b87480ULL},  // query 14, 0 predicates
    {384, 0x095a5ca10978355fULL},  // query 14, 1 predicate
    {768, 0x2348b67a7d661f44ULL},  // query 14, 2 predicates
    {267, 0x4322486932121190ULL},  // query 15, 0 predicates
    {534, 0xc457d28da8d7a423ULL},  // query 15, 1 predicate
    {1068, 0x7ad3c67bf6fa7a90ULL},  // query 15, 2 predicates
    {2, 0xd886320f460ef828ULL},  // query 16, 0 predicates
    {4, 0x9245f48901b99fadULL},  // query 16, 1 predicate
    {8, 0x08ca770acc7784a9ULL},  // query 16, 2 predicates
    {157, 0xfa835d353cf003f8ULL},  // query 17, 0 predicates
    {314, 0x5bbe8b4cdf8c3561ULL},  // query 17, 1 predicate
    {628, 0x5e2639c4b2e19c01ULL},  // query 17, 2 predicates
    {192, 0x55441c21e90e249eULL},  // query 18, 0 predicates
    {384, 0x3e165c2935e9a778ULL},  // query 18, 1 predicate
    {768, 0x33030029e8f74272ULL},  // query 18, 2 predicates
    {2985, 0x45cbd43b26aee672ULL},  // query 19, 0 predicates
    {5970, 0xc51de5f2c8360139ULL},  // query 19, 1 predicate
    {11940, 0x235ceb5be37d07f2ULL},  // query 19, 2 predicates
    {1605, 0x414a24cf8f312788ULL},  // query 20, 0 predicates
    {3210, 0x9264a0b1301ab345ULL},  // query 20, 1 predicate
    {6420, 0x17ae075e3b2bc3fbULL},  // query 20, 2 predicates
    {2, 0x4b0b200b59532275ULL},  // query 21, 0 predicates
    {4, 0x25d04e90a3f48e4fULL},  // query 21, 1 predicate
    {8, 0xf3dc5d62877ed25cULL},  // query 21, 2 predicates
    {2, 0x15c180489c1b5a04ULL},  // query 22, 0 predicates
    {4, 0x3f004aa260aebf60ULL},  // query 22, 1 predicate
    {8, 0x8fe4e116e45ea9bfULL},  // query 22, 2 predicates
    {2, 0x3fdb648f358f2bbeULL},  // query 23, 0 predicates
    {4, 0x4ef74657b6023327ULL},  // query 23, 1 predicate
    {8, 0x4fc461e3c9a70851ULL},  // query 23, 2 predicates
    {15, 0xcbb3d643fc481d7eULL},  // query 24, 0 predicates
    {30, 0x864762413dcbe96cULL},  // query 24, 1 predicate
    {60, 0x98c602bddcd5866dULL},  // query 24, 2 predicates
  };
  // The 25 Twitter base queries over 4 round-robin servers, and an
  // enumerator at its defaults.
  const TwitterScenario world = MakeTwitterScenario(4);
  const Rig rig = MakeRig(world);
  const PlanEnumerator& e = *rig.enumerator;
  const std::vector<Sharing> base =
      TwitterBaseSharings(world.tables, *world.cluster);
  ASSERT_EQ(base.size() * 3, std::size(kPinned));
  for (size_t q = 0; q < base.size(); ++q) {
    for (int preds = 0; preds <= 2; ++preds) {
      Rng rng(1000 * q + static_cast<uint64_t>(preds));
      const Sharing sharing(
          base[q].tables(),
          RandomPredicates(*world.catalog, base[q].tables(), preds, &rng),
          base[q].destination());
      const auto space = e.Enumerate(sharing);
      ASSERT_TRUE(space.ok());
      EXPECT_EQ(OrderPin(*space),
                Literal(kPinned[3 * q + static_cast<size_t>(preds)]))
          << "query " << q << "/" << preds;
    }
  }
}

TEST(EnumerationOrderTest, StarSharingsKeepPinnedOrder) {
  constexpr PinnedOrder kPinned[] = {
    {2796, 0xc93f591a5505bcb6ULL},  // star sharing 0
    {5640, 0x8abc8a1677af795bULL},  // star sharing 1
    {11100, 0x27cad609fa6ca048ULL},  // star sharing 2
  };
  Catalog catalog;
  Cluster cluster;
  StarSchemaOptions schema_options;
  schema_options.num_fact = 2;
  schema_options.num_dim = 10;
  const auto schema = BuildStarCatalog(&catalog, schema_options);
  ASSERT_TRUE(schema.ok());
  for (int i = 0; i < 5; ++i) cluster.AddServer("m" + std::to_string(i));
  cluster.PlaceRoundRobin(catalog.num_tables());
  const JoinGraph graph = JoinGraph::FromCatalog(catalog);
  TableDrivenCostModel model;
  const PlanEnumerator e(&catalog, &cluster, &graph, &model, {});
  StarSequenceOptions seq;
  seq.num_sharings = 3;
  seq.max_tables = 6;
  seq.exact_size = true;
  seq.seed = 29;
  const std::vector<Sharing> sharings =
      GenerateStarSharings(*schema, cluster, seq);
  ASSERT_EQ(sharings.size(), std::size(kPinned));
  for (size_t i = 0; i < sharings.size(); ++i) {
    const auto space = e.Enumerate(sharings[i]);
    ASSERT_TRUE(space.ok());
    EXPECT_EQ(OrderPin(*space), Literal(kPinned[i])) << "star sharing " << i;
  }
}

}  // namespace
}  // namespace dsm
