// Maintenance-engine throughput (the engine is serial), in two sections:
//   maintenance_throughput — views × update-rate sweep over a random
//     chain-join view population.
//   overlap — N ∈ {25, 100, 400} views drawn from 25 distinct keys (exact
//     duplicates, and predicated views whose unpredicated twin is
//     present). Exact duplicates share one engine node, and predicated
//     nodes are fed from their twin, so join_work, merges and
//     resident_bytes stay flat in N.
// Each cell's time is the median of 5 runs, with min and max (1 run under
// --smoke).
//
// Each cell replays the same pre-generated update stream: bases are
// pre-populated (untimed), then timed rounds of batched updates flow
// through ApplyUpdates.

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_report.h"
#include "common/rng.h"
#include "maintain/delta_engine.h"
#include "maintain/tuple_store.h"

namespace dsm {
namespace bench {
namespace {

constexpr int kNumTables = 6;

Catalog MakeChainCatalog() {
  Catalog catalog;
  for (int i = 0; i < kNumTables; ++i) {
    TableDef def;
    def.name = "T" + std::to_string(i);
    for (const int c : {i, i + 1}) {
      ColumnDef col;
      col.name = "c" + std::to_string(c);
      // A wide domain keeps chain joins selective: with N rows per base,
      // each join step multiplies sizes by ~N/1024, so views stay small
      // while every probe still finds matches.
      col.distinct_values = 1024;
      col.min_value = 0;
      col.max_value = 1024;
      def.columns.push_back(col);
    }
    *catalog.AddTable(def);
  }
  return catalog;
}

Tuple RandomTuple(Rng* rng) {
  Tuple t;
  t.emplace_back(rng->UniformInt(0, 1023));
  t.emplace_back(rng->UniformInt(0, 1023));
  return t;
}

struct Workload {
  std::vector<ViewKey> views;
  std::vector<TableUpdate> prepopulate;           // untimed bulk load
  std::vector<std::vector<TableUpdate>> rounds;   // timed batches
  uint64_t stream_tuples = 0;                     // tuples across rounds
};

Workload MakeWorkload(int num_views, int base_rows, int rounds,
                      int updates_per_table, uint64_t seed) {
  Rng rng(seed);
  Workload w;
  for (int v = 0; v < num_views; ++v) {
    const int lo = static_cast<int>(rng.UniformInt(0, kNumTables - 3));
    const int hi = lo + 2;  // three-table chain views
    TableSet tables;
    for (int t = lo; t <= hi; ++t) tables.Add(static_cast<TableId>(t));
    std::vector<Predicate> preds;
    if (v % 2 == 0) {
      Predicate p;
      p.table = static_cast<TableId>(rng.UniformInt(lo, hi));
      p.column = static_cast<uint16_t>(rng.UniformInt(0, 1));
      p.op = CompareOp::kLt;
      p.value = 768;  // keeps ~3/4 of the operand
      preds.push_back(p);
    }
    w.views.emplace_back(tables, preds);
  }
  for (int t = 0; t < kNumTables; ++t) {
    TableUpdate bulk;
    bulk.table = static_cast<TableId>(t);
    for (int i = 0; i < base_rows; ++i) {
      bulk.inserts.push_back(RandomTuple(&rng));
    }
    w.prepopulate.push_back(std::move(bulk));
  }
  for (int r = 0; r < rounds; ++r) {
    std::vector<TableUpdate> round;
    for (int t = 0; t < kNumTables; ++t) {
      TableUpdate update;
      update.table = static_cast<TableId>(t);
      for (int i = 0; i < updates_per_table; ++i) {
        if (i % 5 == 4 && !w.prepopulate[static_cast<size_t>(t)]
                               .inserts.empty()) {
          // Delete a known-live row (from the bulk load).
          const auto& pool =
              w.prepopulate[static_cast<size_t>(t)].inserts;
          update.deletes.push_back(pool[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(pool.size()) - 1))]);
        } else {
          update.inserts.push_back(RandomTuple(&rng));
        }
      }
      w.stream_tuples += update.inserts.size() + update.deletes.size();
      round.push_back(std::move(update));
    }
    w.rounds.push_back(std::move(round));
  }
  return w;
}

// The overlap section's view population: kOverlapKeys distinct keys, each
// taken by views/kOverlapKeys views (round-robin). Seven table windows of
// the chain — the 2-table windows {i, i+1} and the 3-table windows
// {i, i+1, i+2} for i = 0..3 and 0..2 — each carry the unpredicated view;
// the other 18 keys put one to three predicates on those windows, so every
// predicated view has an unpredicated twin.
constexpr int kOverlapKeys = 25;

std::vector<ViewKey> OverlapKeys() {
  std::vector<TableSet> windows;
  for (const int width : {2, 3}) {
    for (int lo = 0; lo < kNumTables - width; ++lo) {
      TableSet tables;
      for (int t = lo; t < lo + width; ++t) tables.Add(static_cast<TableId>(t));
      windows.push_back(tables);
    }
  }
  std::vector<ViewKey> keys;
  for (const TableSet& tables : windows) keys.emplace_back(tables);
  for (int k = 0; static_cast<int>(keys.size()) < kOverlapKeys; ++k) {
    const TableSet tables = windows[static_cast<size_t>(k) % windows.size()];
    const std::vector<TableId> members = tables.ToVector();
    std::vector<Predicate> preds;
    for (int j = 0; j <= k / static_cast<int>(windows.size()); ++j) {
      Predicate p;
      p.table = members[static_cast<size_t>(j) % members.size()];
      p.column = static_cast<uint16_t>((k + j) % 2);
      p.op = (k + j) % 2 == 0 ? CompareOp::kLt : CompareOp::kGt;
      p.value = 256.0 * (1 + (k + j) % 3);
      preds.push_back(p);
    }
    keys.emplace_back(tables, preds);
  }
  return keys;
}

Workload MakeOverlapWorkload(int num_views, int base_rows, int rounds,
                             int updates_per_table, uint64_t seed) {
  Workload w = MakeWorkload(/*num_views=*/0, base_rows, rounds,
                            updates_per_table, seed);
  const std::vector<ViewKey> keys = OverlapKeys();
  for (int v = 0; v < num_views; ++v) {
    w.views.push_back(keys[static_cast<size_t>(v) % keys.size()]);
  }
  return w;
}

struct CellResult {
  double seconds = 0.0;
  uint64_t work = 0;
  // Heap bytes of the engine's row stores (bases, operand caches, views)
  // after the timed rounds.
  int64_t resident_bytes = 0;
};

int64_t ResidentBytes() {
  return TupleStoreStats::Global().resident_bytes.load(
      std::memory_order_relaxed);
}

CellResult RunCell(const Catalog& catalog, const Workload& w) {
  const int64_t resident_before = ResidentBytes();
  DeltaEngine engine(&catalog);
  for (TableId t = 0; t < catalog.num_tables(); ++t) {
    if (!engine.RegisterBase(t).ok()) std::abort();
  }
  if (!engine.ApplyUpdates(w.prepopulate).ok()) std::abort();
  for (const ViewKey& key : w.views) {
    if (!engine.RegisterView(key).ok()) std::abort();
  }
  const Timer timer;
  for (const std::vector<TableUpdate>& round : w.rounds) {
    if (!engine.ApplyUpdates(round).ok()) std::abort();
  }
  CellResult result;
  result.seconds = timer.Seconds();
  result.work = engine.work();
  result.resident_bytes = ResidentBytes() - resident_before;
  return result;
}

// A cell timed over `runs` runs: the counts of the last run, and the
// sorted per-run seconds.
struct TimedCell {
  CellResult cell;
  std::vector<double> seconds;
  double median() const { return seconds[seconds.size() / 2]; }
};

TimedCell TimeCell(const Catalog& catalog, const Workload& w, int runs) {
  TimedCell timed;
  for (int run = 0; run < runs; ++run) {
    const CellResult one = RunCell(catalog, w);
    if (run > 0 && (one.work != timed.cell.work ||
                    one.resident_bytes != timed.cell.resident_bytes)) {
      std::abort();  // repeat guard: counts must not vary across runs
    }
    timed.cell = one;
    timed.seconds.push_back(one.seconds);
  }
  std::sort(timed.seconds.begin(), timed.seconds.end());
  return timed;
}

// The fields every row shares.
obs::JsonValue CellRow(int views, int rate, int runs, const Workload& w,
                       const TimedCell& timed) {
  obs::JsonValue row = obs::JsonValue::Object();
  row.Set("views", views);
  row.Set("updates_per_table_per_round", rate);
  row.Set("runs", runs);
  row.Set("seconds", timed.median());
  row.Set("seconds_min", timed.seconds.front());
  row.Set("seconds_max", timed.seconds.back());
  row.Set("stream_tuples", static_cast<double>(w.stream_tuples));
  row.Set("tuples_per_sec",
          static_cast<double>(w.stream_tuples) / timed.median());
  row.Set("join_work", static_cast<double>(timed.cell.work));
  return row;
}

int Main(int argc, char** argv) {
  BenchReport report("fig_maintenance", argc, argv);
  const bool full = FullScale();

  const std::vector<int> view_counts = report.smoke() ? std::vector<int>{4}
                                       : full ? std::vector<int>{8, 32, 64}
                                              : std::vector<int>{8, 32};
  const std::vector<int> rate_scales =  // updates per table per round
      report.smoke() ? std::vector<int>{8}
      : full         ? std::vector<int>{8, 32, 128}
                     : std::vector<int>{8, 64};
  const int base_rows = report.smoke() ? 400 : 4000;
  const int rounds = report.smoke() ? 2 : 5;
  const int runs = report.smoke() ? 1 : 5;
  const Catalog catalog = MakeChainCatalog();

  std::printf("Maintenance engine throughput (chain joins over %d tables, "
              "%d base rows/table, %d timed rounds, median of %d runs)\n\n",
              kNumTables, base_rows, rounds, runs);
  std::printf("%6s %6s %10s %10s %10s %12s %12s\n", "views", "rate",
              "seconds", "min", "max", "tuples/s", "join_work");
  report.BeginSection("maintenance_throughput");

  for (const int views : view_counts) {
    for (const int rate : rate_scales) {
      const Workload w =
          MakeWorkload(views, base_rows, rounds, rate,
                       /*seed=*/static_cast<uint64_t>(views * 1009 + rate));
      const TimedCell timed = TimeCell(catalog, w, runs);
      std::printf("%6d %6d %10.4f %10.4f %10.4f %12.0f %12llu\n", views,
                  rate, timed.median(), timed.seconds.front(),
                  timed.seconds.back(),
                  static_cast<double>(w.stream_tuples) / timed.median(),
                  static_cast<unsigned long long>(timed.cell.work));
      report.Row(CellRow(views, rate, runs, w, timed));
    }
  }

  const std::vector<int> overlap_views =
      report.smoke() ? std::vector<int>{25, 100}
                     : std::vector<int>{25, 100, 400};
  const int overlap_rate = report.smoke() ? 8 : 32;
  std::printf("\nOverlapping views (%d distinct keys, %d updates/"
              "table/round, median of %d runs)\n\n",
              kOverlapKeys, overlap_rate, runs);
  std::printf("%6s %10s %10s %10s %12s %12s %12s %14s\n", "views", "seconds",
              "min", "max", "tuples/s", "join_work", "work/view",
              "resident_bytes");
  report.BeginSection("overlap");
  for (const int views : overlap_views) {
    const Workload w = MakeOverlapWorkload(views, base_rows, rounds,
                                           overlap_rate, /*seed=*/4242);
    const TimedCell timed = TimeCell(catalog, w, runs);
    const double work_per_view =
        static_cast<double>(timed.cell.work) / static_cast<double>(views);
    std::printf("%6d %10.4f %10.4f %10.4f %12.0f %12llu %12.1f %14lld\n",
                views, timed.median(), timed.seconds.front(),
                timed.seconds.back(),
                static_cast<double>(w.stream_tuples) / timed.median(),
                static_cast<unsigned long long>(timed.cell.work),
                work_per_view,
                static_cast<long long>(timed.cell.resident_bytes));
    obs::JsonValue row = CellRow(views, overlap_rate, runs, w, timed);
    row.Set("distinct_keys", kOverlapKeys);
    row.Set("join_work_per_view", work_per_view);
    row.Set("resident_bytes",
            static_cast<double>(timed.cell.resident_bytes));
    report.Row(std::move(row));
  }

  report.BeginSection("environment");
  obs::JsonValue env = obs::JsonValue::Object();
  env.Set("hardware_concurrency",
          static_cast<double>(std::thread::hardware_concurrency()));
  env.Set("note",
          "the machine's core count, for the record: the engine is "
          "single-threaded, so timings do not scale with it; join_work is "
          "a count and repeats exactly");
  report.Row(std::move(env));

  return report.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace dsm

int main(int argc, char** argv) { return dsm::bench::Main(argc, argv); }
