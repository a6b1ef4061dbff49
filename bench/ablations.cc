// Ablations of the design choices Section 4.4 calls out, plus the two
// implemented future-work extensions (Section 7):
//   1. MANAGEDRISK without the consumed-regret subtraction of Eq. (1),
//   2. MANAGEDRISK without the 1/(m-1) factor,
//   3. MANAGEDRISK without Eq. (3)'s perc weighting (general case),
//   4. replanning existing sharings when new ones arrive,
//   5. speculative materialization of high-regret views.

#include <vector>

#include "bench_common.h"
#include "bench_report.h"
#include "online/greedy.h"
#include "online/managed_risk.h"
#include "online/replanner.h"
#include "online/speculative.h"
#include "workload/adversarial.h"

namespace dsm {
namespace bench {
namespace {

double RunManagedRisk(const Scenario& scenario,
                      const ManagedRiskOptions& options) {
  const Rig rig = MakeRig(scenario);
  ManagedRiskPlanner planner(rig.ctx, options);
  return RunSequence(&planner, scenario);
}

void RegretAblations(BenchReport* report) {
  std::printf("(1,2) Eq. (1) ablations (global cost $, lower is better)\n");
  std::printf("%-22s %14s %14s %14s %14s\n", "variant", "greedy trap",
              "normalize trap", "eq1 trap+tail", "eq1 short");
  const Scenario greedy_trap = MakeGreedyTrap(60, 100.0, 10.0, 1e-3);
  const Scenario norm_trap = MakeNormalizeTrap(60, 0.01);
  const Scenario eq1_tail = MakeEquationOneTrap(10, /*include_tail=*/true);
  const Scenario eq1_short = MakeEquationOneTrap(7, /*include_tail=*/false);

  ManagedRiskOptions full;
  ManagedRiskOptions no_subtract;
  no_subtract.subtract_consumed_regret = false;
  ManagedRiskOptions no_divide;
  no_divide.divide_by_joins = false;

  report->BeginSection("regret_ablations");
  for (const auto& [name, options] :
       std::vector<std::pair<const char*, ManagedRiskOptions>>{
           {"full ManagedRisk", full},
           {"no regret subtract", no_subtract},
           {"no 1/(m-1) factor", no_divide}}) {
    const double c1 = RunManagedRisk(greedy_trap, options);
    const double c2 = RunManagedRisk(norm_trap, options);
    const double c3 = RunManagedRisk(eq1_tail, options);
    const double c4 = RunManagedRisk(eq1_short, options);
    std::printf("%-22s %14.3f %14.3f %14.3f %14.3f\n", name, c1, c2, c3,
                c4);
    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("variant", name);
    row.Set("greedy_trap_cost", c1);
    row.Set("normalize_trap_cost", c2);
    row.Set("eq1_trap_tail_cost", c3);
    row.Set("eq1_short_cost", c4);
    report->Row(std::move(row));
  }
  std::printf("\n");
}

void PercAblation(BenchReport* report) {
  std::printf("(3) perc weighting (Eq. 3) on Twitter with 0-2 "
              "predicates\n");
  std::printf("%-22s %14s\n", "variant", "global cost $");
  report->BeginSection("perc_ablation");
  for (const bool use_perc : {true, false}) {
    const TwitterScenario world = MakeTwitterScenario(6);
    const Rig rig = MakeRig(world);
    TwitterSequenceOptions options;
    options.num_sharings = 40;
    options.max_predicates = 2;
    options.seed = 424242;
    const auto sequence = GenerateTwitterSequence(
        *world.catalog, world.tables, *world.cluster, options);
    ManagedRiskOptions mr_options;
    mr_options.use_perc = use_perc;
    ManagedRiskPlanner planner(rig.ctx, mr_options);
    for (const Sharing& sharing : sequence) {
      (void)planner.ProcessSharing(sharing);
    }
    std::printf("%-22s %14.4f\n", use_perc ? "with perc" : "without perc",
                rig.global_plan->TotalCost());
    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("variant", use_perc ? "with perc" : "without perc");
    row.Set("global_cost", rig.global_plan->TotalCost());
    report->Row(std::move(row));
  }
  std::printf("\n");
}

void ReplannerAblation(BenchReport* report) {
  std::printf("(4) replanning existing sharings (Section 7 future work)\n");
  std::printf("%-22s %14s %14s %8s\n", "scenario", "before $", "after $",
              "changed");
  report->BeginSection("replanner_ablation");
  for (const uint64_t seed : {11ull, 22ull, 33ull}) {
    const Scenario scenario = MakeRandomThreeWay(seed, 30, 16);
    const Rig rig = MakeRig(scenario);
    GreedyPlanner planner(rig.ctx);
    (void)RunSequence(&planner, scenario);
    Replanner replanner(rig.ctx);
    const auto replan_report = replanner.Improve();
    if (!replan_report.ok()) continue;
    std::printf("random seed %-10llu %14.1f %14.1f %8d\n",
                static_cast<unsigned long long>(seed),
                replan_report->cost_before, replan_report->cost_after,
                replan_report->plans_changed);
    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("seed", seed);
    row.Set("cost_before", replan_report->cost_before);
    row.Set("cost_after", replan_report->cost_after);
    row.Set("plans_changed", replan_report->plans_changed);
    report->Row(std::move(row));
  }
  std::printf("\n");
}

void SpeculativeAblation(BenchReport* report) {
  std::printf("(5) speculative high-regret views (Section 7 future "
              "work), greedy-trap sequence\n");
  std::printf("%-22s %14s %10s\n", "variant", "global cost $", "views");
  report->BeginSection("speculative_ablation");
  for (const bool speculate : {false, true}) {
    const Scenario scenario = MakeGreedyTrap(40, 100.0, 10.0, 1e-3);
    const Rig rig = MakeRig(scenario);
    ManagedRiskPlanner planner(rig.ctx);
    SpeculativeOptions spec_options;
    spec_options.regret_multiple = 0.5;
    SpeculativeViewAdvisor advisor(&planner, spec_options);
    int views = 0;
    for (const Sharing& sharing : scenario.sharings) {
      (void)planner.ProcessSharing(sharing);
      if (speculate) {
        const auto spec_report = advisor.MaybeSpeculate();
        if (spec_report.ok()) views += spec_report->views_created;
      }
    }
    std::printf("%-22s %14.3f %10d\n",
                speculate ? "with speculation" : "plain ManagedRisk",
                rig.global_plan->TotalCost(), views);
    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("variant",
            speculate ? "with speculation" : "plain ManagedRisk");
    row.Set("global_cost", rig.global_plan->TotalCost());
    row.Set("views_created", views);
    report->Row(std::move(row));
  }
}

int Main(int argc, char** argv) {
  BenchReport report("ablations", argc, argv);
  std::printf("Ablation benches (design choices from Sections 4.4/4.5 and "
              "7)\n\n");
  RegretAblations(&report);
  PercAblation(&report);
  ReplannerAblation(&report);
  SpeculativeAblation(&report);
  return report.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace dsm

int main(int argc, char** argv) { return dsm::bench::Main(argc, argv); }
