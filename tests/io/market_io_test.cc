// Round-trip persistence of market state: catalog, cluster, sharings and
// their exact plans, with the restored global plan matching the saved one
// node for node and dollar for dollar.

#include "io/market_io.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "costing/costing_session.h"
#include "io/plan_journal.h"
#include "market/rig.h"
#include "online/managed_risk.h"
#include "testing/plans.h"
#include "workload/adversarial.h"
#include "workload/predicate_gen.h"
#include "workload/twitter.h"

namespace dsm {
namespace {

TEST(MarketIoTest, CatalogAndClusterRoundTrip) {
  Catalog catalog;
  const auto tables = BuildTwitterCatalog(&catalog);
  ASSERT_TRUE(tables.ok());
  Cluster cluster;
  cluster.AddServer("alpha", 123.5);
  cluster.AddServer("beta");
  cluster.PlaceRoundRobin(catalog.num_tables());

  const auto text = MarketStateToString(catalog, cluster, nullptr);
  ASSERT_TRUE(text.ok());
  const auto state = MarketStateFromString(*text);
  ASSERT_TRUE(state.ok()) << state.status().ToString();

  ASSERT_EQ(state->catalog.num_tables(), catalog.num_tables());
  for (TableId t = 0; t < catalog.num_tables(); ++t) {
    const TableDef& a = catalog.table(t);
    const TableDef& b = state->catalog.table(t);
    EXPECT_EQ(a.name, b.name);
    EXPECT_DOUBLE_EQ(a.stats.cardinality, b.stats.cardinality);
    EXPECT_DOUBLE_EQ(a.stats.update_rate, b.stats.update_rate);
    ASSERT_EQ(a.columns.size(), b.columns.size());
    for (size_t c = 0; c < a.columns.size(); ++c) {
      EXPECT_EQ(a.columns[c].name, b.columns[c].name);
      EXPECT_DOUBLE_EQ(a.columns[c].distinct_values,
                       b.columns[c].distinct_values);
    }
    EXPECT_EQ(*state->cluster.HomeOf(t), *cluster.HomeOf(t));
  }
  ASSERT_EQ(state->cluster.num_servers(), 2u);
  EXPECT_EQ(state->cluster.server(0).name, "alpha");
  EXPECT_DOUBLE_EQ(state->cluster.server(0).capacity_tuples_per_unit,
                   123.5);
}

TEST(MarketIoTest, NamesWithSpacesEscape) {
  Catalog catalog;
  TableDef def;
  def.name = "my table";
  ColumnDef col;
  col.name = "a col";
  def.columns = {col};
  ASSERT_TRUE(catalog.AddTable(def).ok());
  Cluster cluster;
  cluster.AddServer("rack 1 / server 2");
  cluster.PlaceRoundRobin(1);

  const auto text = MarketStateToString(catalog, cluster, nullptr);
  ASSERT_TRUE(text.ok());
  const auto state = MarketStateFromString(*text);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->catalog.table(0).name, "my table");
  EXPECT_EQ(state->catalog.table(0).columns[0].name, "a col");
  EXPECT_EQ(state->cluster.server(0).name, "rack 1 / server 2");
}

TEST(MarketIoTest, GlobalPlanRoundTripPreservesCost) {
  const Scenario sc = MakeGreedyTrap(6, 20.0, 10.0, 1e-3);
  auto rig = MakeRig(sc);
  ManagedRiskPlanner planner(rig.ctx);
  for (const Sharing& sharing : sc.sharings) {
    ASSERT_TRUE(planner.ProcessSharing(sharing).ok());
  }
  const double original_cost = rig.global_plan->TotalCost();
  const size_t original_views = rig.global_plan->num_alive_views();

  const auto text =
      MarketStateToString(*sc.catalog, *sc.cluster, rig.global_plan.get());
  ASSERT_TRUE(text.ok());
  const auto state = MarketStateFromString(*text);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  ASSERT_EQ(state->sharings.size(), sc.sharings.size());

  // Replay into a fresh global plan over the same cost model.
  GlobalPlan restored(sc.cluster.get(), sc.model.get());
  ASSERT_TRUE(RestoreGlobalPlan(*state, &restored).ok());
  EXPECT_NEAR(restored.TotalCost(), original_cost, 1e-9);
  EXPECT_EQ(restored.num_alive_views(), original_views);
  for (const SharingId id : rig.global_plan->sharing_ids()) {
    EXPECT_NEAR(restored.GPC(id), rig.global_plan->GPC(id), 1e-9);
  }
}

TEST(MarketIoTest, PredicatedSharingsRoundTrip) {
  const TwitterScenario world = MakeTwitterScenario(3);
  const Rig rig = MakeRig(world);
  const Catalog& catalog = *world.catalog;
  const Cluster& cluster = *world.cluster;
  GlobalPlan& gp = *rig.global_plan;
  ManagedRiskPlanner planner(rig.ctx);

  TwitterSequenceOptions options;
  options.num_sharings = 8;
  options.max_predicates = 2;
  options.seed = 99;
  for (const Sharing& sharing :
       GenerateTwitterSequence(catalog, world.tables, cluster, options)) {
    ASSERT_TRUE(planner.ProcessSharing(sharing).ok());
  }

  const auto text = MarketStateToString(catalog, cluster, &gp);
  ASSERT_TRUE(text.ok());
  const auto state = MarketStateFromString(*text);
  ASSERT_TRUE(state.ok()) << state.status().ToString();

  GlobalPlan restored(&cluster, world.model.get());
  ASSERT_TRUE(RestoreGlobalPlan(*state, &restored).ok());
  EXPECT_NEAR(restored.TotalCost(), gp.TotalCost(), 1e-9);

  // Predicates survived (queries stay identical).
  for (size_t i = 0; i < state->sharings.size(); ++i) {
    const SharingId id = state->sharings[i].id;
    EXPECT_TRUE(state->sharings[i].sharing.ResultKey() ==
                gp.record(id)->sharing.ResultKey());
    EXPECT_EQ(state->sharings[i].sharing.destination(),
              gp.record(id)->sharing.destination());
  }
}

TEST(MarketIoTest, RejectsGarbage) {
  EXPECT_FALSE(MarketStateFromString("not a market\n").ok());
  EXPECT_FALSE(
      MarketStateFromString("dsm-market v1\nbogus record\n").ok());
  EXPECT_FALSE(MarketStateFromString(
                   "dsm-market v1\ncol orphan i64 1 0 1\n")
                   .ok());
}

TEST(MarketIoTest, TruncatedPlanRejected) {
  const std::string text =
      "dsm-market v1\n"
      "server s0 1e30\n"
      "sharing 1 0 buyer 3 0\n"
      "plan 2\n"
      "node 0 0 -1 -1 0 1 0\n";  // one node missing
  EXPECT_FALSE(MarketStateFromString(text).ok());
}

// A syntactically valid prefix around which the hardening tests mutate.
constexpr const char* kValidTail =
    "sharing 1 0 buyer 1 0\n"
    "plan 1\n"
    "node 0 0 -1 -1 0 1 0\n";

// The header, one server and two one-column tables: enough catalog for
// the sharings over tables {0, 1} that the fixtures below parse.
std::string WithHeader(const std::string& body) {
  return std::string(
             "dsm-market v1\nserver s0 1e30\n"
             "table t0 10 1 8 1\ncol a i64 5 0 9\n"
             "table t1 10 1 8 1\ncol a i64 5 0 9\n") +
         body;
}

// A file with servers and a sharing but no table records names tables no
// catalog defines; its reader must refuse it, not hand a state with an
// empty catalog to code that indexes tables by id.
TEST(MarketIoTest, SharingsWithoutTableRecordsRejected) {
  const std::string text =
      "dsm-market v1\nserver s0 inf\nsharing 1 0 b 1 0\nplan 1\n"
      "node 0 0 -1 -1 0 1 0\n";
  EXPECT_EQ(MarketStateFromString(text).status().code(),
            StatusCode::kInvalidArgument);
  // The same file with its table record parses.
  const std::string with_table =
      "dsm-market v1\nserver s0 inf\ntable t0 10 1 8 1\n"
      "col a i64 5 0 9\nsharing 1 0 b 1 0\nplan 1\n"
      "node 0 0 -1 -1 0 1 0\n";
  EXPECT_TRUE(MarketStateFromString(with_table).ok());
}

TEST(MarketIoTest, NegativeCountsRejected) {
  // Counts are read as signed and bounds-checked: "-1" must be rejected,
  // not wrapped into a huge unsigned allocation request.
  EXPECT_EQ(MarketStateFromString(
                WithHeader("table t 10 1 8 -1\n"))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MarketStateFromString(
                WithHeader("sharing 1 0 buyer 1 -2\n"))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MarketStateFromString(
                WithHeader("sharing 1 0 buyer 1 0\nplan -5\n"))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MarketStateFromString(
                WithHeader("sharing 1 0 buyer 1 0\nplan 1\n"
                           "node 0 0 -1 -1 0 1 -3\n"))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Absurdly large counts are rejected before any allocation, too.
  EXPECT_EQ(MarketStateFromString(
                WithHeader("sharing 1 0 buyer 1 0\nplan 1099511627776\n"))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(MarketIoTest, OutOfRangeIdsRejected) {
  // One server exists; every id referencing beyond it must fail.
  EXPECT_FALSE(
      MarketStateFromString(WithHeader("place 0 7\n")).ok());
  EXPECT_FALSE(
      MarketStateFromString(WithHeader("place 99 0\n")).ok());
  EXPECT_FALSE(MarketStateFromString(
                   WithHeader("sharing 1 9 buyer 1 0\n"
                              "plan 1\nnode 0 9 -1 -1 0 1 0\n"))
                   .ok());
  EXPECT_FALSE(MarketStateFromString(
                   WithHeader("sharing 1 0 buyer 1 0\n"
                              "plan 1\nnode 0 5 -1 -1 0 1 0\n"))
                   .ok());
  // Predicate table/column beyond their domains.
  EXPECT_FALSE(MarketStateFromString(
                   WithHeader("sharing 1 0 buyer 1 1\n"
                              "pred 64 0 0 1.0\n" +
                              std::string("plan 1\n"
                                          "node 0 0 -1 -1 0 1 0\n")))
                   .ok());
  EXPECT_FALSE(MarketStateFromString(
                   WithHeader("sharing 1 0 buyer 1 1\n"
                              "pred 0 0 9 1.0\n" +
                              std::string("plan 1\n"
                                          "node 0 0 -1 -1 0 1 0\n")))
                   .ok());
}

TEST(MarketIoTest, MalformedPlanShapeRejected) {
  // Leaf with a child, join missing one, child index referencing itself.
  EXPECT_FALSE(MarketStateFromString(
                   WithHeader("sharing 1 0 buyer 1 0\n"
                              "plan 1\nnode 0 0 0 -1 0 1 0\n"))
                   .ok());
  EXPECT_FALSE(MarketStateFromString(
                   WithHeader("sharing 1 0 buyer 3 0\n"
                              "plan 2\nnode 0 0 -1 -1 0 1 0\n"
                              "node 1 0 0 -1 1 3 0\n"))
                   .ok());
  EXPECT_FALSE(MarketStateFromString(
                   WithHeader("sharing 1 0 buyer 1 0\n"
                              "plan 1\nnode 2 0 0 -1 0 1 0\n"))
                   .ok());
}

// A sharing over tables {0, 1} on server 0, with a plan that is well
// formed node by node but does not compute it.
TEST(MarketIoTest, PlanThatDoesNotComputeItsSharingRejected) {
  const std::string head = "sharing 1 0 buyer 3 0\n";
  const std::string leaves =
      "node 0 0 -1 -1 0 1 0\n"
      "node 0 0 -1 -1 1 2 0\n";
  const std::string valid = head + "plan 3\n" + leaves +
                            "node 1 0 0 1 0 3 0\n";
  ASSERT_TRUE(ParseSharingRecord(valid, 1).ok());
  ASSERT_TRUE(MarketStateFromString(WithHeader(valid)).ok());

  const std::vector<std::string> bad = {
      // Two unjoined leaves: the root covers {1} only.
      head + "plan 2\n" + leaves,
      // A join whose two children are both node 0.
      head + "plan 2\nnode 0 0 -1 -1 0 1 0\nnode 1 0 0 0 0 3 0\n",
      // A join feeding nothing below the root.
      head + "plan 4\n" + leaves + "node 1 0 0 1 0 3 0\n" +
          "node 0 0 -1 -1 0 1 0\n",
      // The root lacks the sharing's predicate.
      "sharing 1 0 buyer 3 1\npred 0 0 0 5\nplan 3\n" + leaves +
          "node 1 0 0 1 0 3 0\n",
  };
  for (const std::string& block : bad) {
    EXPECT_EQ(ParseSharingRecord(block, 1).status().code(),
              StatusCode::kInvalidArgument)
        << block;
    EXPECT_EQ(MarketStateFromString(WithHeader(block)).status().code(),
              StatusCode::kInvalidArgument)
        << block;
  }
  // The result on another server than the destination.
  EXPECT_FALSE(ParseSharingRecord(head + "plan 3\n" + leaves +
                                      "node 1 1 0 1 0 3 0\n",
                                  2)
                   .ok());

  // A journal frame with an intact checksum but such a plan is dropped,
  // with everything after it, like any other nonsense payload.
  const Sharing sharing(TableSet(3), {}, 0);
  const auto parsed = ParseSharingRecord(valid, 1);
  SharingPlan unjoined = parsed->plan;
  unjoined.nodes.pop_back();
  PlanJournal journal;
  ASSERT_TRUE(journal.Open().ok());
  ASSERT_TRUE(journal.Append(1, sharing, parsed->plan).ok());
  ASSERT_TRUE(journal.Append(2, sharing, unjoined).ok());
  ASSERT_TRUE(journal.Append(3, sharing, parsed->plan).ok());
  const auto replay = ReplayJournal(journal.contents(), 1);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records_recovered, 1u);
  EXPECT_TRUE(replay->tail_dropped);
}

// A '%' in a name must start a two-hex-digit escape; the lone "%" is the
// empty name. "%zz" must not decode to a NUL byte, "%4g" to "\x04", or a
// truncated "%4" pass through as is.
TEST(MarketIoTest, MalformedEscapeRejected) {
  const auto code = [](const std::string& text) {
    return MarketStateFromString(text).status().code();
  };
  const auto server = [](const std::string& name) {
    return "dsm-market v1\nserver " + name + " 1e30\n";
  };
  const auto table = [](const std::string& name) {
    return WithHeader("table " + name + " 10 1 8 0\n");
  };
  const auto column = [](const std::string& name) {
    return WithHeader("table t 10 1 8 1\ncol " + name + " i64 5 0 9\n");
  };
  const auto sharing = [](const std::string& buyer) {
    return "sharing 1 0 " + buyer + " 1 0\nplan 1\nnode 0 0 -1 -1 0 1 0\n";
  };
  const auto journal = [&](const std::string& buyer) {
    std::string text = "dsm-journal v1\n";
    for (const std::string& payload : {std::string(kValidTail),
                                       sharing(buyer)}) {
      char head[64];
      std::snprintf(head, sizeof(head), "rec %zu %016llx\n", payload.size(),
                    static_cast<unsigned long long>(JournalChecksum(payload)));
      text += head + payload;
    }
    return ReplayJournal(text, 1);
  };

  // Well-formed escapes parse, in either case, and so does the empty name
  // where the catalog allows one.
  for (const std::string good : {"a%20b", "%2F%2f", "%"}) {
    SCOPED_TRACE(good);
    EXPECT_EQ(code(server(good)), StatusCode::kOk);
    if (good != "%") {
      EXPECT_EQ(code(table(good)), StatusCode::kOk);
      EXPECT_EQ(code(column(good)), StatusCode::kOk);
    }
    EXPECT_EQ(code(WithHeader(sharing(good))), StatusCode::kOk);
    const auto replay = journal(good);
    ASSERT_TRUE(replay.ok());
    EXPECT_EQ(replay->records_recovered, 2u);
  }
  for (const std::string bad : {"%zz", "a%4g", "a%4", "a%", "%%", "%g0"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(code(server(bad)), StatusCode::kInvalidArgument);
    EXPECT_EQ(code(table(bad)), StatusCode::kInvalidArgument);
    EXPECT_EQ(code(column(bad)), StatusCode::kInvalidArgument);
    EXPECT_EQ(code(WithHeader(sharing(bad))), StatusCode::kInvalidArgument);
    EXPECT_EQ(ParseSharingRecord(sharing(bad), 1).status().code(),
              StatusCode::kInvalidArgument);
    // A journal frame with an intact checksum but such a buyer is dropped
    // like any other nonsense payload.
    const auto replay = journal(bad);
    ASSERT_TRUE(replay.ok());
    EXPECT_EQ(replay->records_recovered, 1u);
    EXPECT_TRUE(replay->tail_dropped);
  }

  // Every name Escape writes still reads back exactly.
  Catalog catalog;
  TableDef def;
  def.name = "%41 50% \t";
  ColumnDef col;
  col.name = "%";
  def.columns = {col};
  ASSERT_TRUE(catalog.AddTable(def).ok());
  Cluster cluster;
  const std::vector<std::string> names = {"", "%", "%%", "%zz", "a%4",
                                          " \t\n\v\f\r%"};
  for (const std::string& name : names) cluster.AddServer(name);
  cluster.PlaceRoundRobin(1);
  const auto text = MarketStateToString(catalog, cluster, nullptr);
  ASSERT_TRUE(text.ok());
  const auto state = MarketStateFromString(*text);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state->catalog.table(0).name, def.name);
  EXPECT_EQ(state->catalog.table(0).columns[0].name, col.name);
  ASSERT_EQ(state->cluster.num_servers(), names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(state->cluster.server(static_cast<ServerId>(i)).name, names[i]);
  }
}

TEST(MarketIoTest, BadServerCapacityRejected) {
  EXPECT_FALSE(MarketStateFromString("dsm-market v1\nserver s0 nan\n").ok());
  EXPECT_FALSE(MarketStateFromString("dsm-market v1\nserver s0 -5\n").ok());
  EXPECT_FALSE(
      MarketStateFromString("dsm-market v1\nserver s0 12abc\n").ok());
  // "inf" (an uncapped server) stays legal.
  EXPECT_TRUE(MarketStateFromString("dsm-market v1\nserver s0 inf\n").ok());
}

TEST(MarketIoTest, ServerRecordAfterSharingsRejected) {
  EXPECT_FALSE(MarketStateFromString(WithHeader(std::string(kValidTail) +
                                                "server s1 1e30\n"))
                   .ok());
}

TEST(MarketIoTest, ParseSharingRecordChecksServerRange) {
  const auto ok = ParseSharingRecord(kValidTail, /*num_servers=*/1);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->id, 1u);
  // num_servers = 0 skips the range check entirely.
  EXPECT_TRUE(ParseSharingRecord(kValidTail, 0).ok());
  const std::string far_server =
      "sharing 1 3 buyer 1 0\nplan 1\nnode 0 3 -1 -1 0 1 0\n";
  EXPECT_FALSE(ParseSharingRecord(far_server, /*num_servers=*/2).ok());
  EXPECT_TRUE(ParseSharingRecord(far_server, /*num_servers=*/4).ok());
  // Truncation mid-block is an error here (the journal handles framing).
  EXPECT_FALSE(ParseSharingRecord("sharing 1 0 buyer 1 0\nplan 1\n", 1).ok());
}

TEST(MarketIoTest, FuzzedInputNeverCrashes) {
  // A valid serialized market, then hundreds of random truncations and
  // byte flips: every mutation must either parse or fail cleanly with a
  // status — no crash, hang, or runaway allocation.
  const TwitterScenario world = MakeTwitterScenario(3);
  const Rig rig = MakeRig(world);
  const Catalog& catalog = *world.catalog;
  const Cluster& cluster = *world.cluster;
  GlobalPlan& gp = *rig.global_plan;
  ManagedRiskPlanner planner(rig.ctx);
  TwitterSequenceOptions options;
  options.num_sharings = 5;
  options.max_predicates = 2;
  options.seed = 13;
  for (const Sharing& sharing :
       GenerateTwitterSequence(catalog, world.tables, cluster, options)) {
    ASSERT_TRUE(planner.ProcessSharing(sharing).ok());
  }
  const auto text = MarketStateToString(catalog, cluster, &gp);
  ASSERT_TRUE(text.ok());

  Rng rng(0xfadedbee);
  int billed = 0;
  for (int iter = 0; iter < 300; ++iter) {
    std::string mutated = *text;
    // Truncate at a random point...
    if (rng.Bernoulli(0.5)) {
      mutated.resize(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()))));
    }
    // ...and/or flip a few random bytes.
    const int flips = static_cast<int>(rng.UniformInt(0, 4));
    for (int f = 0; f < flips && !mutated.empty(); ++f) {
      const auto pos = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<char>(rng.UniformInt(0, 255));
    }
    // Any Status is fine; not crashing is the assertion. A state that
    // parses is restored and billed on a world of its own, as dsm_inspect
    // does, so every id it names must fit its catalog and cluster.
    auto state = MarketStateFromString(mutated);
    if (!state.ok()) continue;
    Scenario restored_world;
    restored_world.catalog =
        std::make_unique<Catalog>(std::move(state->catalog));
    restored_world.cluster =
        std::make_unique<Cluster>(std::move(state->cluster));
    restored_world.FillDefaults();
    const Rig restored = MakeRig(restored_world);
    if (!RestoreGlobalPlan(*state, restored.global_plan.get()).ok()) continue;
    LpcCalculator lpc(restored.enumerator.get(), restored_world.model.get());
    CostingSession costing(restored.global_plan.get(), &lpc);
    (void)costing.Refresh();
    ++billed;
  }
  EXPECT_GT(billed, 0);
}

// Each kind of table id outside the catalog: restoring such a market
// would index the cost model's catalog out of bounds.
TEST(MarketIoTest, TableIdsOutsideTheCatalogRejected) {
  const std::string market =
      "dsm-market v1\n"
      "server s0 inf\n"
      "table t 100 1 8 1\n"
      "col a i64 10 0 10\n"
      "place 0 0\n";
  ASSERT_TRUE(MarketStateFromString(market + kValidTail).ok());
  const std::vector<std::string> outside = {
      // Every id names table 5.
      "sharing 1 0 b 32 1\npred 5 0 0 1\nplan 1\n"
      "node 0 0 -1 -1 5 32 1\npred 5 0 0 1\n",
      // A predicate table only.
      "sharing 1 0 b 1 1\npred 5 0 0 1\nplan 1\n"
      "node 0 0 -1 -1 0 1 1\npred 5 0 0 1\n",
      // A node base table only.
      "sharing 1 0 b 1 0\nplan 1\nnode 0 0 -1 -1 5 1 0\n",
      // A node key mask only: a leaf over {0, 1} below the root.
      "sharing 1 0 b 1 0\nplan 2\nnode 0 0 -1 -1 0 3 0\n"
      "node 2 0 0 -1 0 1 0\n",
  };
  for (const std::string& sharing : outside) {
    EXPECT_EQ(MarketStateFromString(market + sharing).status().code(),
              StatusCode::kInvalidArgument)
        << sharing;
  }
}

// Seeded Twitter and star markets whose sharings carry 0-3 predicates:
// the file reads back to the same bytes and the same global plan, and
// every journaled commit replays to the sharing and plan it recorded.
TEST(MarketIoTest, SeededMarketsRoundTripExactly) {
  TwitterScenario twitter = MakeTwitterScenario(4);
  TwitterSequenceOptions twitter_options;
  twitter_options.num_sharings = 60;
  twitter_options.max_predicates = 3;
  twitter_options.frac_with_predicates = 0.75;
  twitter_options.seed = 5;
  twitter.sharings = GenerateTwitterSequence(
      *twitter.catalog, twitter.tables, *twitter.cluster, twitter_options);
  StarScenario star = MakeStarScenario(2, 12, 4);
  StarSequenceOptions star_options;
  star_options.num_sharings = 60;
  star_options.max_tables = 4;
  star_options.seed = 5;
  Rng rng(5);
  for (const Sharing& s :
       GenerateStarSharings(star.schema, *star.cluster, star_options)) {
    const int preds = static_cast<int>(star.sharings.size() % 4);
    star.sharings.emplace_back(
        s.tables(), RandomPredicates(*star.catalog, s.tables(), preds, &rng),
        s.destination(), s.buyer());
  }

  for (const Scenario* world : {static_cast<Scenario*>(&twitter),
                                static_cast<Scenario*>(&star)}) {
    const Rig rig = MakeRig(*world);
    const GlobalPlan& gp = *rig.global_plan;
    ManagedRiskPlanner planner(rig.ctx);
    PlanJournal journal;
    ASSERT_TRUE(journal.Open().ok());
    std::vector<SharingStateEntry> committed;
    for (const Sharing& sharing : world->sharings) {
      const auto choice = planner.ProcessSharing(sharing);
      if (!choice.ok()) continue;
      ASSERT_TRUE(journal.Append(choice->id, sharing, choice->plan).ok());
      committed.push_back({choice->id, sharing, choice->plan});
    }
    ASSERT_GE(committed.size(), 50u);

    const auto text =
        MarketStateToString(*world->catalog, *world->cluster, &gp);
    ASSERT_TRUE(text.ok());
    const auto state = MarketStateFromString(*text);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    GlobalPlan restored(world->cluster.get(), world->model.get());
    ASSERT_TRUE(RestoreGlobalPlan(*state, &restored).ok());
    const auto rewritten =
        MarketStateToString(state->catalog, state->cluster, &restored);
    ASSERT_TRUE(rewritten.ok());
    EXPECT_EQ(*rewritten, *text);
    EXPECT_EQ(std::bit_cast<uint64_t>(restored.TotalCost()),
              std::bit_cast<uint64_t>(gp.TotalCost()));
    ASSERT_EQ(restored.num_sharings(), gp.num_sharings());
    for (const SharingId id : gp.sharing_ids()) {
      ASSERT_NE(restored.record(id), nullptr) << id;
      EXPECT_EQ(restored.record(id)->plan, gp.record(id)->plan) << id;
    }

    const auto replay =
        ReplayJournal(journal.contents(), world->cluster->num_servers());
    ASSERT_TRUE(replay.ok());
    EXPECT_FALSE(replay->tail_dropped);
    ASSERT_EQ(replay->entries.size(), committed.size());
    for (size_t i = 0; i < committed.size(); ++i) {
      const SharingStateEntry& got = replay->entries[i];
      const SharingStateEntry& want = committed[i];
      EXPECT_EQ(got.id, want.id);
      EXPECT_TRUE(got.sharing.ResultKey() == want.sharing.ResultKey());
      EXPECT_EQ(got.sharing.destination(), want.sharing.destination());
      EXPECT_EQ(got.sharing.buyer(), want.sharing.buyer());
      EXPECT_EQ(got.plan, want.plan);
    }
  }
}

TEST(MarketIoTest, RestoreRequiresEmptyPlan) {
  const Scenario sc = MakeGreedyTrap(1);
  auto rig = MakeRig(sc);
  const auto plans =
      testing_support::EnumerateAll(*rig.enumerator, sc.sharings[0]);
  ASSERT_TRUE(plans.ok());
  ASSERT_TRUE(
      rig.global_plan->AddSharing(1, sc.sharings[0], plans->front()).ok());
  MarketState state;
  EXPECT_EQ(RestoreGlobalPlan(state, rig.global_plan.get()).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dsm
