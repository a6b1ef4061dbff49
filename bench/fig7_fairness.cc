// Figure 7: fairness of FAIRCOST versus the even-split baseline on the
// Twitter workload, measured by the Section 5 criteria — α for both
// algorithms plus the baseline's LPC / Identical / Contained fractions
// (FAIRCOST scores 1.0 on those by construction; verified here).
//
// Paper shape: FAIRCOST's α close to 1 and all criteria at 1; the
// baseline's α lower and its criterion fractions visibly below 1.

#include <vector>

#include "bench_common.h"
#include "bench_report.h"
#include "costing/even_split.h"
#include "costing/fairness_metrics.h"
#include "costing/lpc.h"
#include "costing/savings.h"

namespace dsm {
namespace bench {
namespace {

struct Row {
  double alpha_fair = 0.0;
  double alpha_base = 0.0;
  double lpc_base = 0.0;
  double ident_base = 0.0;
  double cont_base = 0.0;
  bool fair_all_one = true;
};

Row Measure(size_t num_sharings, int max_preds, uint64_t seed) {
  const TwitterScenario world = MakeTwitterScenario(6);
  const Rig rig = MakeRig(world);
  TwitterSequenceOptions options;
  options.num_sharings = num_sharings;
  options.max_predicates = max_preds;
  options.seed = seed;
  const auto sequence = GenerateTwitterSequence(
      *world.catalog, world.tables, *world.cluster, options);
  // "The algorithm for costing sharings are invoked on the output of
  // Algorithm MANAGEDRISK on the Twitter data." (Section 6.1.2)
  const auto planner = MakePlanner(PlannerKind::kManagedRisk, rig.ctx);
  (void)RunPlanner(planner.get(), sequence);

  Row row;
  LpcCalculator lpc(rig.enumerator.get(), world.model.get());
  const auto problem = BuildFairCostProblem(*rig.global_plan, &lpc);
  if (!problem.ok()) return row;
  const auto fair =
      FairCost::Compute(problem->entries, problem->global_cost);
  if (!fair.ok()) return row;
  const auto even = EvenSplitCosts(*rig.global_plan, problem->ids);
  if (!even.ok()) return row;

  const FairnessReport fair_report =
      EvaluateFairness(problem->entries, problem->global_cost, fair->ac);
  const FairnessReport base_report =
      EvaluateFairness(problem->entries, problem->global_cost, *even);
  row.alpha_fair = fair_report.alpha;
  row.alpha_base = base_report.alpha;
  row.lpc_base = base_report.lpc_fraction;
  row.ident_base = base_report.identical_fraction;
  row.cont_base = base_report.contained_fraction;
  row.fair_all_one = fair_report.lpc_fraction == 1.0 &&
                     fair_report.identical_fraction == 1.0 &&
                     fair_report.contained_fraction == 1.0;
  return row;
}

obs::JsonValue PairJson(const std::string& x_label, const Row& a,
                        const Row& b) {
  obs::JsonValue row = obs::JsonValue::Object();
  row.Set("x", x_label);
  row.Set("alpha_faircost", (a.alpha_fair + b.alpha_fair) / 2);
  row.Set("alpha_baseline", (a.alpha_base + b.alpha_base) / 2);
  row.Set("lpc_fraction_baseline", (a.lpc_base + b.lpc_base) / 2);
  row.Set("identical_fraction_baseline", (a.ident_base + b.ident_base) / 2);
  row.Set("contained_fraction_baseline", (a.cont_base + b.cont_base) / 2);
  row.Set("faircost_all_criteria", a.fair_all_one && b.fair_all_one);
  return row;
}

void Sweep(BenchReport* report, const char* section, const char* title,
           int max_preds, const std::vector<std::pair<int, int>>& buckets,
           uint64_t seed) {
  std::printf("%s\n", title);
  std::printf("%-10s %12s %12s %12s %12s %12s %10s\n", "sharings",
              "a-FairCost", "a-Baseline", "LPC(base)", "Ident(base)",
              "Cont(base)", "FC all=1");
  report->BeginSection(section);
  for (const auto& [lo, hi] : buckets) {
    // Average the bucket's endpoints (two runs per bucket).
    const Row a = Measure(static_cast<size_t>(lo), max_preds, seed + lo);
    const Row b = Measure(static_cast<size_t>(hi), max_preds, seed + hi);
    std::printf("%3d-%-6d %12.3f %12.3f %12.3f %12.3f %12.3f %10s\n", lo,
                hi, (a.alpha_fair + b.alpha_fair) / 2,
                (a.alpha_base + b.alpha_base) / 2,
                (a.lpc_base + b.lpc_base) / 2,
                (a.ident_base + b.ident_base) / 2,
                (a.cont_base + b.cont_base) / 2,
                a.fair_all_one && b.fair_all_one ? "yes" : "NO");
    report->Row(PairJson(std::to_string(lo) + "-" + std::to_string(hi), a,
                         b));
  }
  std::printf("\n");
}

int Main(int argc, char** argv) {
  BenchReport report("fig7_fairness", argc, argv);
  std::printf("Figure 7 — fair costing quality (FairCost vs even-split "
              "baseline)\n\n");
  const std::vector<std::pair<int, int>> buckets =
      report.smoke()
          ? std::vector<std::pair<int, int>>{{10, 20}}
          : std::vector<std::pair<int, int>>{
                {10, 20}, {20, 30}, {30, 40}, {40, 50}, {50, 60}};

  Sweep(&report, "a_no_predicates",
        "(a) sharings per test case, no predicates", 0, buckets, 700);
  Sweep(&report, "b_with_predicates",
        "(b) sharings per test case, 0-2 predicates", 2, buckets, 800);

  std::printf("(c) max predicates per sharing, 40-50 sharings\n");
  std::printf("%-10s %12s %12s %12s %12s %12s %10s\n", "max preds",
              "a-FairCost", "a-Baseline", "LPC(base)", "Ident(base)",
              "Cont(base)", "FC all=1");
  report.BeginSection("c_max_predicates");
  for (const int preds : report.smoke() ? std::vector<int>{0}
                                        : std::vector<int>{0, 1, 2, 3}) {
    const Row a = Measure(40, preds, 900 + static_cast<uint64_t>(preds));
    const Row b = Measure(50, preds, 950 + static_cast<uint64_t>(preds));
    std::printf("%-10d %12.3f %12.3f %12.3f %12.3f %12.3f %10s\n", preds,
                (a.alpha_fair + b.alpha_fair) / 2,
                (a.alpha_base + b.alpha_base) / 2,
                (a.lpc_base + b.lpc_base) / 2,
                (a.ident_base + b.ident_base) / 2,
                (a.cont_base + b.cont_base) / 2,
                a.fair_all_one && b.fair_all_one ? "yes" : "NO");
    report.Row(PairJson(std::to_string(preds), a, b));
  }
  return report.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace dsm

int main(int argc, char** argv) { return dsm::bench::Main(argc, argv); }
