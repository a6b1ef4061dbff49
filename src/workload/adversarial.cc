#include "workload/adversarial.h"

#include <cassert>
#include <memory>
#include <string>

#include "common/rng.h"

namespace dsm {
namespace {

TableDef SimpleTable(const std::string& name) {
  TableDef def;
  def.name = name;
  ColumnDef col;
  col.name = "k_" + name;
  col.distinct_values = 1000;
  col.max_value = 1000;
  def.columns = {col};
  def.stats.cardinality = 1000;
  def.stats.update_rate = 1.0;
  return def;
}

// A scenario over `n + 2` tables a, b, c_1..c_n on one server with the
// path join graph a - b - c_x (so each sharing (a,b,c_x) has exactly the
// two plans of Examples 4.1/4.2). The caller sets the cost model.
Scenario MakeTrapBase(int n) {
  assert(n >= 1 && n <= 62);
  Scenario sc;
  sc.cluster->AddServer("s0");

  const TableId a = *sc.catalog->AddTable(SimpleTable("a"));
  const TableId b = *sc.catalog->AddTable(SimpleTable("b"));
  std::vector<TableId> c(static_cast<size_t>(n));
  for (int x = 0; x < n; ++x) {
    c[static_cast<size_t>(x)] =
        *sc.catalog->AddTable(SimpleTable("c" + std::to_string(x + 1)));
  }
  sc.cluster->PlaceRoundRobin(sc.catalog->num_tables());

  sc.graph = std::make_unique<JoinGraph>(sc.catalog->num_tables());
  sc.graph->AddEdge(a, b);
  for (int x = 0; x < n; ++x) {
    sc.graph->AddEdge(b, c[static_cast<size_t>(x)]);
  }

  for (int x = 0; x < n; ++x) {
    TableSet tables;
    tables.Add(a);
    tables.Add(b);
    tables.Add(c[static_cast<size_t>(x)]);
    sc.sharings.emplace_back(tables, std::vector<Predicate>{},
                             /*destination=*/0,
                             "buyer" + std::to_string(x + 1));
  }
  return sc;
}

// The traps' cost model: unused pairs cost a deterministic 1.
std::unique_ptr<TableDrivenCostModel> TrapCosts() {
  TableDrivenCostModel::Options opts;
  opts.random_min = 1.0;
  opts.random_max = 1.0;
  return std::make_unique<TableDrivenCostModel>(opts);
}

}  // namespace

Scenario MakeGreedyTrap(int n, double risky_cost, double alt_cost,
                        double epsilon) {
  Scenario sc = MakeTrapBase(n);
  auto model = TrapCosts();
  const TableSet a = TableSet::Of(0);
  const TableSet b = TableSet::Of(1);
  const TableSet ab = a.Union(b);
  model->SetJoinCost(a, b, risky_cost);
  for (int x = 0; x < n; ++x) {
    const TableSet cx = TableSet::Of(static_cast<TableId>(2 + x));
    model->SetJoinCost(ab, cx, epsilon);          // c[(ab)c_x]
    model->SetJoinCost(b, cx, alt_cost / 2);      // c[bc_x]
    model->SetJoinCost(a, b.Union(cx), alt_cost / 2);  // c[a(bc_x)]
  }
  sc.model = std::move(model);
  return sc;
}

Scenario MakeNormalizeTrap(int n, double epsilon) {
  Scenario sc = MakeTrapBase(n);
  auto model = TrapCosts();
  const TableSet a = TableSet::Of(0);
  const TableSet b = TableSet::Of(1);
  const TableSet ab = a.Union(b);
  model->SetJoinCost(a, b, static_cast<double>(n));  // c[ab] = n
  for (int x = 0; x < n; ++x) {
    const TableSet cx = TableSet::Of(static_cast<TableId>(2 + x));
    model->SetJoinCost(ab, cx, epsilon);  // c[(ab)c_x] = eps
    if (x + 1 < n) {
      // C[a(bc_x)] = eps for the first n-1 sharings.
      model->SetJoinCost(b, cx, epsilon / 2);
      model->SetJoinCost(a, b.Union(cx), epsilon / 2);
    } else {
      // C[a(bc_n)] = 1 + 2*eps for the final sharing.
      model->SetJoinCost(b, cx, 0.5 + epsilon);
      model->SetJoinCost(a, b.Union(cx), 0.5 + epsilon);
    }
  }
  sc.model = std::move(model);
  return sc;
}

Scenario MakeEquationOneTrap(int n, bool include_tail) {
  assert(n >= 1 && n <= 60);
  Scenario sc;
  sc.cluster->AddServer("s0");

  const TableId a = *sc.catalog->AddTable(SimpleTable("a"));
  const TableId b = *sc.catalog->AddTable(SimpleTable("b"));
  const TableId c = *sc.catalog->AddTable(SimpleTable("c"));
  const TableId g = *sc.catalog->AddTable(SimpleTable("g"));
  std::vector<TableId> d(static_cast<size_t>(n));
  for (int x = 0; x < n; ++x) {
    d[static_cast<size_t>(x)] =
        *sc.catalog->AddTable(SimpleTable("d" + std::to_string(x + 1)));
  }
  sc.cluster->PlaceRoundRobin(sc.catalog->num_tables());

  sc.graph = std::make_unique<JoinGraph>(sc.catalog->num_tables());
  sc.graph->AddEdge(a, b);
  sc.graph->AddEdge(b, c);
  sc.graph->AddEdge(b, g);
  for (int x = 0; x < n; ++x) {
    sc.graph->AddEdge(c, d[static_cast<size_t>(x)]);
  }

  // Unset join pairs default to 50: prohibitively expensive, pinning the
  // interesting plan space.
  TableDrivenCostModel::Options opts;
  opts.random_min = 50.0;
  opts.random_max = 50.0;
  auto model = std::make_unique<TableDrivenCostModel>(opts);

  const TableSet ta = TableSet::Of(a);
  const TableSet tb = TableSet::Of(b);
  const TableSet tc = TableSet::Of(c);
  const TableSet tg = TableSet::Of(g);
  model->SetJoinCost(tb, tc, 20.0);                   // c[bc]
  model->SetJoinCost(ta, tb.Union(tc), 5.0);          // c[a(bc)]
  model->SetJoinCost(ta, tb, 35.0);                   // c[ab]
  model->SetJoinCost(ta.Union(tb), tg, 0.1);          // c[(ab)g]
  model->SetJoinCost(tb, tg, 1.5);                    // c[bg]
  model->SetJoinCost(ta, tb.Union(tg), 1.5);          // c[a(bg)]
  for (int x = 0; x < n; ++x) {
    const TableSet td = TableSet::Of(d[static_cast<size_t>(x)]);
    model->SetJoinCost(tc, td, 1.0);                         // c[cd_x]
    model->SetJoinCost(tb, tc.Union(td), 1.0);               // c[b(cd)]
    model->SetJoinCost(ta, tb.Union(tc).Union(td), 1.0);     // c[a(bcd)]
    model->SetJoinCost(ta.Union(tb).Union(tc), td, 1.0);     // c[(abc)d]
  }
  sc.model = std::move(model);

  for (int x = 0; x < n; ++x) {
    TableSet tables = ta.Union(tb).Union(tc);
    tables.Add(d[static_cast<size_t>(x)]);
    sc.sharings.emplace_back(tables, std::vector<Predicate>{},
                             /*destination=*/0,
                             "phase1-" + std::to_string(x + 1));
  }
  if (include_tail) {
    sc.sharings.emplace_back(ta.Union(tb).Union(tg),
                             std::vector<Predicate>{}, /*destination=*/0,
                             "tail");
  }
  return sc;
}

Scenario MakeRandomThreeWay(uint64_t seed, int num_sharings,
                            int table_pool) {
  assert(table_pool >= 3 && table_pool <= 64);
  Scenario sc;
  sc.cluster->AddServer("s0");

  Rng rng(seed);
  for (int i = 0; i < table_pool; ++i) {
    (void)*sc.catalog->AddTable(SimpleTable("t" + std::to_string(i)));
  }
  sc.cluster->PlaceRoundRobin(sc.catalog->num_tables());

  // Path backbone plus random chords keeps the graph connected while
  // varying the per-sharing plan spaces.
  sc.graph = std::make_unique<JoinGraph>(sc.catalog->num_tables());
  for (int i = 0; i + 1 < table_pool; ++i) {
    sc.graph->AddEdge(static_cast<TableId>(i), static_cast<TableId>(i + 1));
  }
  const int chords = table_pool / 2;
  for (int i = 0; i < chords; ++i) {
    const auto u = static_cast<TableId>(rng.UniformInt(0, table_pool - 1));
    const auto v = static_cast<TableId>(rng.UniformInt(0, table_pool - 1));
    if (u != v) sc.graph->AddEdge(u, v);
  }

  TableDrivenCostModel::Options opts;
  opts.seed = seed ^ 0xabcdef;
  opts.random_min = 1.0;
  opts.random_max = 1e5;  // Section 6.1.2's cost range
  sc.model = std::make_unique<TableDrivenCostModel>(opts);

  // Sharings: random walks of length 2 from a random start table.
  for (int s = 0; s < num_sharings; ++s) {
    TableSet tables;
    auto cur = static_cast<TableId>(rng.UniformInt(0, table_pool - 1));
    tables.Add(cur);
    int guard = 0;
    while (tables.size() < 3 && guard < 200) {
      ++guard;
      const auto next = static_cast<TableId>(
          rng.UniformInt(0, table_pool - 1));
      if (!tables.Contains(next) &&
          sc.graph->Joinable(tables, TableSet::Of(next))) {
        tables.Add(next);
      }
    }
    if (tables.size() < 3) continue;  // unreachable: backbone is connected
    sc.sharings.emplace_back(tables, std::vector<Predicate>{},
                             /*destination=*/0,
                             "rand" + std::to_string(s));
  }
  return sc;
}

}  // namespace dsm
