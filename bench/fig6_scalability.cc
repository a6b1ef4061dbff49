// Figure 6: scalability on the synthetic star schema — per-sharing
// planning time versus (a) sharing size on one machine, (b) sharing size
// on ten machines, (c) sequence length, (d) number of machines, (e) total
// dimension tables, (f) total fact tables. Plan-enumeration time is
// reported separately, as in the figure's legend.
//
// Paper shape: exponential in sharing size (all plans are enumerated),
// slightly *decreasing* in sequence length (repeat sharings skip
// planning), increasing in machines, flat in dims/facts.

#include <vector>

#include "bench_common.h"
#include "bench_report.h"

namespace dsm {
namespace bench {
namespace {

struct AlgoPoint {
  double mean_ms = 0.0;
  double total_cost = 0.0;
  LatencySummary latency;
};

struct Point {
  double enumerate_ms = 0.0;  // plan-enumeration share
  AlgoPoint greedy;
  AlgoPoint norm;
  AlgoPoint mr;
};

Point Measure(int facts, int dims, size_t machines, size_t num_sharings,
              int max_tables, bool exact_size, uint64_t seed,
              size_t beam = 0) {
  EnumeratorOptions enum_options;
  enum_options.per_subset_cap = beam;

  StarSequenceOptions seq_options;
  seq_options.num_sharings = num_sharings;
  seq_options.max_tables = max_tables;
  seq_options.exact_size = exact_size;
  seq_options.seed = seed;

  Point point;
  // Pure enumeration time (shared across planners).
  {
    const StarScenario world = MakeStarScenario(
        facts, dims, machines, TableDrivenCostModel::Options{});
    const Rig rig = MakeRig(world, enum_options);
    const auto sequence =
        GenerateStarSharings(world.schema, *world.cluster, seq_options);
    const Timer timer;
    for (const Sharing& sharing : sequence) {
      (void)rig.enumerator->Enumerate(sharing);
    }
    point.enumerate_ms =
        timer.Millis() / static_cast<double>(sequence.size());
  }
  for (const PlannerKind algo : kPlannerKinds) {
    const StarScenario world = MakeStarScenario(
        facts, dims, machines, TableDrivenCostModel::Options{});
    const Rig rig = MakeRig(world, enum_options);
    const auto sequence =
        GenerateStarSharings(world.schema, *world.cluster, seq_options);
    const auto planner = MakePlanner(algo, rig.ctx);
    const RunStats stats = RunPlanner(planner.get(), sequence);
    AlgoPoint ap;
    ap.mean_ms = stats.seconds * 1e3 / static_cast<double>(sequence.size());
    ap.total_cost = stats.total_cost;
    ap.latency = stats.latency();
    if (algo == PlannerKind::kGreedy) point.greedy = ap;
    if (algo == PlannerKind::kNormalize) point.norm = ap;
    if (algo == PlannerKind::kManagedRisk) point.mr = ap;
  }
  return point;
}

void PrintHeader() {
  std::printf("%-10s %14s %12s %14s %14s\n", "x", "Enumerate(ms)",
              "Greedy(ms)", "Normalize(ms)", "ManagedRisk(ms)");
}

void PrintRow(int x, const Point& p) {
  std::printf("%-10d %14.3f %12.3f %14.3f %14.3f\n", x, p.enumerate_ms,
              p.greedy.mean_ms, p.norm.mean_ms, p.mr.mean_ms);
}

obs::JsonValue AlgoJson(const AlgoPoint& ap) {
  obs::JsonValue o = obs::JsonValue::Object();
  o.Set("mean_ms", ap.mean_ms);
  o.Set("total_cost", ap.total_cost);
  o.Set("latency", ap.latency.ToJson());
  return o;
}

void Report(BenchReport* report, int x, const Point& p) {
  obs::JsonValue row = obs::JsonValue::Object();
  row.Set("x", x);
  row.Set("enumerate_ms", p.enumerate_ms);
  row.Set("Greedy", AlgoJson(p.greedy));
  row.Set("Normalize", AlgoJson(p.norm));
  row.Set("ManagedRisk", AlgoJson(p.mr));
  report->Row(std::move(row));
}

int Main(int argc, char** argv) {
  BenchReport report("fig6_scalability", argc, argv);
  const bool full = FullScale();
  const bool smoke = report.smoke();
  const size_t seq = smoke ? 20 : full ? 1000 : 100;

  std::printf("Figure 6 — scalability on the synthetic star schema "
              "(%szed sweep)\n\n",
              full ? "full-si" : "reduced-si");

  std::printf("(a) sharing size, 1 machine, %zu sharings\n", seq / 2);
  PrintHeader();
  report.BeginSection("a_sharing_size_1_machine");
  for (const int size : smoke ? std::vector<int>{4, 5}
                        : full ? std::vector<int>{6, 7, 8, 9, 10}
                               : std::vector<int>{5, 6, 7, 8}) {
    const Point p =
        Measure(1, 20, 1, seq / 2, size, /*exact_size=*/true, 601);
    PrintRow(size, p);
    Report(&report, size, p);
  }

  std::printf("\n(b) sharing size, 10 machines, %zu sharings\n", seq / 2);
  PrintHeader();
  report.BeginSection("b_sharing_size_10_machines");
  for (const int size : smoke ? std::vector<int>{4}
                        : full ? std::vector<int>{4, 5, 6, 7, 8}
                               : std::vector<int>{4, 5, 6}) {
    const Point p = Measure(1, 20, 10, seq / 2, size, /*exact_size=*/true,
                            602, /*beam=*/full ? 0 : 32);
    PrintRow(size, p);
    Report(&report, size, p);
  }

  std::printf("\n(c) number of sharings in the sequence (1 machine, "
              "up to 7 tables)\n");
  PrintHeader();
  report.BeginSection("c_sequence_length");
  for (const int n : smoke ? std::vector<int>{20, 40}
                     : full ? std::vector<int>{500, 1000, 1500, 2000, 2500}
                            : std::vector<int>{100, 200, 300, 400, 500}) {
    const Point p = Measure(1, 20, 1, static_cast<size_t>(n),
                            smoke ? 5 : 7, /*exact_size=*/false, 603);
    PrintRow(n, p);
    Report(&report, n, p);
  }

  std::printf("\n(d) number of machines (%zu sharings, up to 6 tables)\n",
              seq / 2);
  PrintHeader();
  report.BeginSection("d_machines");
  for (const int machines : smoke ? std::vector<int>{1, 5}
                            : full ? std::vector<int>{1, 5, 10, 15, 20}
                                   : std::vector<int>{1, 5, 10}) {
    const Point p =
        Measure(1, 20, static_cast<size_t>(machines), seq / 2,
                smoke ? 5 : 6, /*exact_size=*/false, 604,
                /*beam=*/full ? 0 : 32);
    PrintRow(machines, p);
    Report(&report, machines, p);
  }

  std::printf("\n(e) total dimension tables (%zu sharings, up to 6 "
              "tables, 1 machine)\n",
              seq / 2);
  PrintHeader();
  report.BeginSection("e_dimension_tables");
  for (const int dims : smoke ? std::vector<int>{10}
                              : std::vector<int>{10, 15, 20, 25, 30}) {
    const Point p = Measure(1, dims, 1, seq / 2, smoke ? 5 : 6,
                            /*exact_size=*/false, 605);
    PrintRow(dims, p);
    Report(&report, dims, p);
  }

  std::printf("\n(f) total fact tables (%zu sharings, up to 6 tables, "
              "1 machine)\n",
              seq / 2);
  PrintHeader();
  report.BeginSection("f_fact_tables");
  for (const int facts : smoke ? std::vector<int>{1}
                               : std::vector<int>{1, 2, 3, 4, 5}) {
    const Point p = Measure(facts, 20, 1, seq / 2, smoke ? 5 : 6,
                            /*exact_size=*/false, 606);
    PrintRow(facts, p);
    Report(&report, facts, p);
  }

  return report.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace dsm

int main(int argc, char** argv) { return dsm::bench::Main(argc, argv); }
