// Figure 4: worst-case cost ratios between the online planners on
// synthetic three-way-join sequences — Example 4.1-style traps (a shared
// subexpression the optimum materializes), Example 4.2-style traps (a
// tempting subexpression the optimum never builds), and random mixes.
//
// Paper shape: MR/Greedy and MR/Norm stay small (a few ×) while
// Greedy/MR and Norm/MR blow up (~30× and ~20×).

#include <algorithm>
#include <vector>

#include "bench_common.h"
#include "bench_report.h"
#include "workload/adversarial.h"

namespace dsm {
namespace bench {
namespace {

struct Ratios {
  double mr_over_greedy = 0.0;
  double mr_over_norm = 0.0;
  double greedy_over_mr = 0.0;
  double norm_over_mr = 0.0;

  void Update(double greedy, double norm, double mr) {
    mr_over_greedy = std::max(mr_over_greedy, mr / greedy);
    mr_over_norm = std::max(mr_over_norm, mr / norm);
    greedy_over_mr = std::max(greedy_over_mr, greedy / mr);
    norm_over_mr = std::max(norm_over_mr, norm / mr);
  }
};

void RunScenario(const Scenario& scenario, Ratios* ratios) {
  double costs[3];
  for (int which = 0; which < 3; ++which) {
    const Rig rig = MakeRig(scenario);
    const auto planner = MakePlanner(kPlannerKinds[which], rig.ctx);
    costs[which] = RunSequence(planner.get(), scenario);
  }
  ratios->Update(costs[0], costs[1], costs[2]);
}

int Main(int argc, char** argv) {
  BenchReport report("fig4_worst_case", argc, argv);
  const bool full = FullScale();
  const int n = report.smoke() ? 20 : 60;  // sharings per trap sequence
  Ratios ratios;

  // Example 4.1 family: risky subexpression worth materializing. The
  // truncated variants (sequence ends right after MANAGEDRISK's switch)
  // are MANAGEDRISK's own worst case — the risk never pays off, bounding
  // MR/Greedy near 2.
  for (const double risky : {10.0, 20.0, 50.0, 100.0}) {
    RunScenario(MakeGreedyTrap(n, risky, 10.0, 1e-3), &ratios);
    const int truncate = static_cast<int>(risky / 10.0) + 1;
    RunScenario(MakeGreedyTrap(truncate, risky, 10.0, 1e-3), &ratios);
  }
  // Example 4.2 family: tempting subexpression that never pays off.
  for (const double eps : {1e-2, 5e-2}) {
    RunScenario(MakeNormalizeTrap(n, eps), &ratios);
  }
  // Random three-way joins with costs in [1, 1e5].
  const int random_runs = report.smoke() ? 5 : full ? 200 : 30;
  for (int seed = 1; seed <= random_runs; ++seed) {
    RunScenario(
        MakeRandomThreeWay(static_cast<uint64_t>(seed), full ? 60 : 30, 16),
        &ratios);
  }

  std::printf("Figure 4 — worst-case cost ratios over %d synthetic "
              "sequences (paper: ~2, ~4, ~30, ~20)\n\n",
              random_runs + 6);
  std::printf("%-12s %10s\n", "pair", "max ratio");
  report.BeginSection("worst_case_ratios");
  const std::pair<const char*, double> pairs[] = {
      {"MR/Greedy", ratios.mr_over_greedy},
      {"MR/Norm", ratios.mr_over_norm},
      {"Greedy/MR", ratios.greedy_over_mr},
      {"Norm/MR", ratios.norm_over_mr}};
  for (const auto& [name, ratio] : pairs) {
    std::printf("%-12s %10.2f\n", name, ratio);
    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("pair", name);
    row.Set("max_ratio", ratio);
    report.Row(std::move(row));
  }
  return report.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace dsm

int main(int argc, char** argv) { return dsm::bench::Main(argc, argv); }
