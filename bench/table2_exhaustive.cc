// Table 2: MANAGEDRISK versus the offline EXHAUSTIVE optimum on small
// sharing sequences (3–5 sharings, at most one predicate each), averaged
// over many sequences.
//
// Paper: relative cost MANAGEDRISK=1 vs EXHAUSTIVE=0.84; relative time
// 1 vs 2.18; MANAGEDRISK never 3x worse than EXHAUSTIVE.

#include <vector>

#include "bench_common.h"
#include "bench_report.h"
#include "online/exhaustive.h"

namespace dsm {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchReport report("table2_exhaustive", argc, argv);
  const int runs = report.smoke() ? 4 : FullScale() ? 50 : 15;
  Rng rng(2014);

  double mr_cost_sum = 0.0;
  double ex_cost_sum = 0.0;
  double mr_time_sum = 0.0;
  double ex_time_sum = 0.0;
  double worst_ratio = 0.0;
  int incomplete = 0;

  for (int run = 0; run < runs; ++run) {
    const TwitterScenario world = MakeTwitterScenario(6);
    const Rig rig = MakeRig(world);
    TwitterSequenceOptions options;
    options.num_sharings =
        3 + static_cast<size_t>(rng.UniformInt(0, 2));  // 3-5 sharings
    options.max_predicates = 1;
    options.seed = 3000 + static_cast<uint64_t>(run);
    const auto sequence = GenerateTwitterSequence(
        *world.catalog, world.tables, *world.cluster, options);

    const auto mr = MakePlanner(PlannerKind::kManagedRisk, rig.ctx);
    const RunStats mr_stats = RunPlanner(mr.get(), sequence);

    const TwitterScenario ex_world = MakeTwitterScenario(6);
    const Rig ex_rig = MakeRig(ex_world);
    ExhaustiveOptions ex_options;
    ex_options.max_plans_per_sharing = FullScale() ? 0 : 48;
    ex_options.time_limit_seconds = FullScale() ? 300.0 : 20.0;
    ExhaustivePlanner exhaustive(ex_rig.ctx, ex_options);
    const Timer timer;
    const auto ex_result = exhaustive.Solve(sequence);
    const double ex_seconds = timer.Seconds();
    if (!ex_result.ok()) continue;
    if (!ex_result->completed) ++incomplete;

    mr_cost_sum += mr_stats.total_cost;
    ex_cost_sum += ex_result->total_cost;
    mr_time_sum += mr_stats.seconds;
    ex_time_sum += ex_seconds;
    worst_ratio =
        std::max(worst_ratio, mr_stats.total_cost / ex_result->total_cost);
  }

  std::printf("Table 2 — MANAGEDRISK vs EXHAUSTIVE over %d sequences of "
              "3-5 sharings (<=1 predicate)\n\n",
              runs);
  std::printf("%-8s %14s %14s\n", "", "ManagedRisk", "Exhaustive");
  std::printf("%-8s %14.2f %14.2f   (paper: 1 vs 0.84)\n", "cost", 1.0,
              ex_cost_sum / mr_cost_sum);
  std::printf("%-8s %14.2f %14.2f   (paper: 1 vs 2.18)\n", "time", 1.0,
              ex_time_sum / std::max(1e-9, mr_time_sum));
  std::printf("\nworst per-sequence cost ratio MR/EXH: %.2f "
              "(paper: never >= 3)\n",
              worst_ratio);
  if (incomplete > 0) {
    std::printf("(%d exhaustive searches hit the time limit)\n", incomplete);
  }
  report.BeginSection("table2");
  obs::JsonValue row = obs::JsonValue::Object();
  row.Set("runs", runs);
  row.Set("relative_cost_exhaustive", ex_cost_sum / mr_cost_sum);
  row.Set("relative_time_exhaustive",
          ex_time_sum / std::max(1e-9, mr_time_sum));
  row.Set("worst_cost_ratio_mr_over_exh", worst_ratio);
  row.Set("incomplete_searches", incomplete);
  report.Row(std::move(row));
  return report.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace dsm

int main(int argc, char** argv) { return dsm::bench::Main(argc, argv); }
