#include <gtest/gtest.h>

#include <set>

#include "market/simulation.h"
#include "plan/join_graph.h"
#include "workload/adversarial.h"
#include "workload/predicate_gen.h"
#include "workload/synthetic.h"
#include "workload/twitter.h"

namespace dsm {
namespace {

TEST(TwitterWorkloadTest, NineRelationsRegistered) {
  Catalog catalog;
  const auto tables = BuildTwitterCatalog(&catalog);
  ASSERT_TRUE(tables.ok());
  EXPECT_EQ(catalog.num_tables(), 9u);
  EXPECT_TRUE(catalog.FindTable("USERS").ok());
  EXPECT_TRUE(catalog.FindTable("PHOTOS").ok());
}

TEST(TwitterWorkloadTest, TwentyFiveBaseSharings) {
  Catalog catalog;
  const auto tables = BuildTwitterCatalog(&catalog);
  ASSERT_TRUE(tables.ok());
  Cluster cluster;
  for (int i = 0; i < 6; ++i) cluster.AddServer("s" + std::to_string(i));
  const auto sharings = TwitterBaseSharings(*tables, cluster);
  EXPECT_EQ(sharings.size(), 25u);
  // Spot-check Table 1: S1 = USERS ⋈ SOCNET, S20 is the 5-way join.
  EXPECT_EQ(sharings[0].tables().size(), 2);
  EXPECT_TRUE(sharings[0].tables().Contains(tables->users));
  EXPECT_TRUE(sharings[0].tables().Contains(tables->socnet));
  EXPECT_EQ(sharings[19].tables().size(), 5);
}

TEST(TwitterWorkloadTest, AllBaseSharingsAreConnectedJoins) {
  // Every Table 1 sharing must be plannable: its tables connected in the
  // natural-join graph derived from the schema.
  Catalog catalog;
  const auto tables = BuildTwitterCatalog(&catalog);
  ASSERT_TRUE(tables.ok());
  Cluster cluster;
  cluster.AddServer("s0");
  const JoinGraph graph = JoinGraph::FromCatalog(catalog);
  for (const Sharing& s : TwitterBaseSharings(*tables, cluster)) {
    EXPECT_TRUE(graph.Connected(s.tables()))
        << "disconnected sharing " << s.buyer();
  }
}

TEST(TwitterWorkloadTest, SequenceRespectsOptions) {
  Catalog catalog;
  const auto tables = BuildTwitterCatalog(&catalog);
  ASSERT_TRUE(tables.ok());
  Cluster cluster;
  for (int i = 0; i < 6; ++i) cluster.AddServer("s" + std::to_string(i));

  TwitterSequenceOptions options;
  options.num_sharings = 40;
  options.max_predicates = 2;
  options.seed = 5;
  const auto seq = GenerateTwitterSequence(catalog, *tables, cluster,
                                           options);
  ASSERT_EQ(seq.size(), 40u);
  size_t with_preds = 0;
  for (const Sharing& s : seq) {
    EXPECT_LE(static_cast<int>(s.predicates().size()), 2);
    for (const Predicate& p : s.predicates()) {
      EXPECT_TRUE(s.tables().Contains(p.table));
    }
    if (!s.predicates().empty()) ++with_preds;
    EXPECT_LT(s.destination(), cluster.num_servers());
  }
  // Roughly half carry predicates.
  EXPECT_GT(with_preds, 8u);
  EXPECT_LT(with_preds, 32u);
}

TEST(TwitterWorkloadTest, SequenceDeterministicPerSeed) {
  Catalog catalog;
  const auto tables = BuildTwitterCatalog(&catalog);
  ASSERT_TRUE(tables.ok());
  Cluster cluster;
  cluster.AddServer("s0");
  TwitterSequenceOptions options;
  options.num_sharings = 10;
  options.max_predicates = 3;
  const auto a = GenerateTwitterSequence(catalog, *tables, cluster, options);
  const auto b = GenerateTwitterSequence(catalog, *tables, cluster, options);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].ResultKey() == b[i].ResultKey());
  }
}

TEST(TwitterWorkloadTest, RandomTupleMatchesSchema) {
  Catalog catalog;
  const auto tables = BuildTwitterCatalog(&catalog);
  ASSERT_TRUE(tables.ok());
  Rng rng(3);
  const Tuple t = RandomTupleForTable(catalog, tables->tweets, &rng);
  EXPECT_EQ(t.size(), catalog.table(tables->tweets).columns.size());
}

TEST(PredicateGenTest, GeneratesValidPredicates) {
  Catalog catalog;
  const auto tables = BuildTwitterCatalog(&catalog);
  ASSERT_TRUE(tables.ok());
  Rng rng(11);
  TableSet ts;
  ts.Add(tables->users);
  ts.Add(tables->tweets);
  for (int i = 0; i < 50; ++i) {
    const Predicate p = RandomPredicate(catalog, ts, &rng);
    EXPECT_TRUE(ts.Contains(p.table));
    EXPECT_LT(p.column, catalog.table(p.table).columns.size());
  }
}

TEST(SyntheticWorkloadTest, StarSchemaShape) {
  Catalog catalog;
  StarSchemaOptions options;
  options.num_fact = 2;
  options.num_dim = 10;
  const auto schema = BuildStarCatalog(&catalog, options);
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->facts.size(), 2u);
  EXPECT_EQ(schema->dims.size(), 10u);

  const JoinGraph graph = JoinGraph::FromCatalog(catalog);
  // Facts join every dim; dims don't join dims. (Facts technically share
  // their dimension-key columns with each other, but sharings always use
  // exactly one fact, so that edge is never exercised.)
  for (const TableId f : schema->facts) {
    for (const TableId d : schema->dims) {
      EXPECT_TRUE(graph.HasEdge(f, d));
    }
  }
  EXPECT_FALSE(graph.HasEdge(schema->dims[0], schema->dims[1]));
}

TEST(SyntheticWorkloadTest, TooManyTablesRejected) {
  Catalog catalog;
  StarSchemaOptions options;
  options.num_fact = 5;
  options.num_dim = 60;
  EXPECT_EQ(BuildStarCatalog(&catalog, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SyntheticWorkloadTest, SharingsAreStarJoins) {
  Catalog catalog;
  StarSchemaOptions schema_options;
  const auto schema = BuildStarCatalog(&catalog, schema_options);
  ASSERT_TRUE(schema.ok());
  Cluster cluster;
  cluster.AddServer("s0");
  StarSequenceOptions options;
  options.num_sharings = 100;
  options.max_tables = 5;
  const auto seq = GenerateStarSharings(*schema, cluster, options);
  ASSERT_EQ(seq.size(), 100u);
  std::set<TableId> facts(schema->facts.begin(), schema->facts.end());
  for (const Sharing& s : seq) {
    EXPECT_GE(s.tables().size(), 2);
    EXPECT_LE(s.tables().size(), 5);
    int fact_count = 0;
    for (const TableId t : s.tables().ToVector()) {
      if (facts.count(t) != 0) ++fact_count;
    }
    EXPECT_EQ(fact_count, 1);
  }
}

TEST(SyntheticWorkloadTest, ExactSizeSharings) {
  Catalog catalog;
  const auto schema = BuildStarCatalog(&catalog, {});
  ASSERT_TRUE(schema.ok());
  Cluster cluster;
  cluster.AddServer("s0");
  StarSequenceOptions options;
  options.num_sharings = 20;
  options.max_tables = 6;
  options.exact_size = true;
  for (const Sharing& s : GenerateStarSharings(*schema, cluster, options)) {
    EXPECT_EQ(s.tables().size(), 6);
  }
}

TEST(SyntheticWorkloadTest, ZipfSkewCreatesRepeats) {
  Catalog catalog;
  const auto schema = BuildStarCatalog(&catalog, {});
  ASSERT_TRUE(schema.ok());
  Cluster cluster;
  cluster.AddServer("s0");
  StarSequenceOptions options;
  options.num_sharings = 300;
  options.max_tables = 3;
  options.dim_zipf = 1.5;
  const auto seq = GenerateStarSharings(*schema, cluster, options);
  std::set<uint64_t> distinct;
  for (const Sharing& s : seq) distinct.insert(ViewKeyHash()(s.ResultKey()));
  EXPECT_LT(distinct.size(), seq.size());  // repeats exist
}

TEST(AdversarialWorkloadTest, GreedyTrapShape) {
  const Scenario sc = MakeGreedyTrap(5);
  EXPECT_EQ(sc.catalog->num_tables(), 7u);  // a, b, c1..c5
  EXPECT_EQ(sc.sharings.size(), 5u);
  for (const Sharing& s : sc.sharings) {
    EXPECT_EQ(s.tables().size(), 3);
    EXPECT_TRUE(sc.graph->Connected(s.tables()));
  }
}

TEST(AdversarialWorkloadTest, RandomThreeWayConnected) {
  const Scenario sc = MakeRandomThreeWay(123, 20, 10);
  EXPECT_EQ(sc.sharings.size(), 20u);
  for (const Sharing& s : sc.sharings) {
    EXPECT_EQ(s.tables().size(), 3);
    EXPECT_TRUE(sc.graph->Connected(s.tables()));
  }
}

}  // namespace
}  // namespace dsm
