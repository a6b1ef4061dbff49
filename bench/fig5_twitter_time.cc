// Figure 5: running time of the three online planners on the Twitter
// workload, varying (a) the number of sharings without predicates, (b)
// with 0–2 predicates, (c) the number of machines, (d) the maximum number
// of predicates per sharing.
//
// Paper shape: the three algorithms track each other closely; time grows
// mildly with sequence length and machines, and exponentially with the
// number of predicates.

#include <vector>

#include "bench_common.h"
#include "bench_report.h"

namespace dsm {
namespace bench {
namespace {

double SecondsPerSharing(PlannerKind algo, size_t num_sharings, int max_preds,
                         size_t machines, uint64_t seed) {
  // Average three seeds per point to damp workload-sampling noise.
  double total = 0.0;
  for (uint64_t rep = 0; rep < 3; ++rep) {
    const TwitterScenario world = MakeTwitterScenario(machines);
    const Rig rig = MakeRig(world);
    TwitterSequenceOptions options;
    options.num_sharings = num_sharings;
    options.max_predicates = max_preds;
    options.seed = seed + rep * 1000;
    const auto sequence = GenerateTwitterSequence(
        *world.catalog, world.tables, *world.cluster, options);
    const auto planner = MakePlanner(algo, rig.ctx);
    const RunStats stats = RunPlanner(planner.get(), sequence);
    total += stats.seconds / static_cast<double>(sequence.size());
  }
  return total / 3.0;
}

void Sweep(BenchReport* report, const char* section, const char* title,
           const std::vector<int>& xs, double (*run)(PlannerKind, int)) {
  std::printf("%s\n", title);
  std::printf("%-10s %14s %14s %14s\n", "x", "Greedy(ms)", "Normalize(ms)",
              "ManagedRisk(ms)");
  report->BeginSection(section);
  for (const int x : xs) {
    std::printf("%-10d", x);
    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("x", x);
    for (const PlannerKind algo : kPlannerKinds) {
      const double ms = run(algo, x) * 1e3;
      std::printf(" %14.3f", ms);
      row.Set(std::string(PlannerName(algo)) + "_ms", ms);
    }
    report->Row(std::move(row));
    std::printf("\n");
  }
  std::printf("\n");
}

int Main(int argc, char** argv) {
  BenchReport report("fig5_twitter_time", argc, argv);
  std::printf("Figure 5 — per-sharing planning time on Twitter data\n\n");
  const std::vector<int> counts = report.smoke()
                                      ? std::vector<int>{10, 20}
                                      : std::vector<int>{10, 20, 30, 40,
                                                         50, 60};

  Sweep(&report, "a_sharings_no_predicates",
        "(a) number of sharings (no predicates, 6 machines)", counts,
        [](PlannerKind algo, int n) {
          return SecondsPerSharing(algo, static_cast<size_t>(n), 0, 6, 101);
        });

  Sweep(&report, "b_sharings_with_predicates",
        "(b) number of sharings (0-2 predicates, 6 machines)", counts,
        [](PlannerKind algo, int n) {
          return SecondsPerSharing(algo, static_cast<size_t>(n), 2, 6, 102);
        });

  Sweep(&report, "c_machines",
        "(c) number of machines (no predicates, 40 sharings)",
        report.smoke() ? std::vector<int>{5, 6}
                       : std::vector<int>{5, 6, 7, 8, 9},
        [](PlannerKind algo, int machines) {
          return SecondsPerSharing(algo, 40, 0,
                                   static_cast<size_t>(machines), 103);
        });

  Sweep(&report, "d_max_predicates",
        "(d) max predicates per sharing (40 sharings, 6 machines)",
        report.smoke() ? std::vector<int>{0, 1}
                       : std::vector<int>{0, 1, 2, 3},
        [](PlannerKind algo, int preds) {
          return SecondsPerSharing(algo, 40, preds, 6, 104);
        });
  return report.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace dsm

int main(int argc, char** argv) { return dsm::bench::Main(argc, argv); }
