// The paper's Twitter workload end to end on the library's low-level API:
// nine base relations on six machines, a sequence of sharings drawn from
// Table 1's 25 base sharings, planned online by all three algorithms, with
// the resulting global-plan costs and fair costing compared.

#include <cstdio>
#include <memory>

#include "costing/even_split.h"
#include "costing/fairness_metrics.h"
#include "costing/lpc.h"
#include "costing/savings.h"
#include "market/rig.h"
#include "workload/scenario.h"

int main() {
  // One sharing sequence, three planners.
  std::printf("Twitter data market: 9 relations, 6 machines, 40 sharings "
              "(up to 2 predicates)\n\n");
  std::printf("%-12s %16s %14s\n", "planner", "global cost $", "views kept");

  double mr_cost = 0.0;
  dsm::TwitterScenario mr_world;
  dsm::Rig mr_rig;
  for (const dsm::PlannerKind kind : dsm::kPlannerKinds) {
    dsm::TwitterScenario world = dsm::MakeTwitterScenario(6);
    dsm::Rig rig = dsm::MakeRig(world);
    dsm::TwitterSequenceOptions options;
    options.num_sharings = 40;
    options.max_predicates = 2;
    options.seed = 2014;
    const auto sequence = dsm::GenerateTwitterSequence(
        *world.catalog, world.tables, *world.cluster, options);

    const std::unique_ptr<dsm::OnlinePlanner> planner =
        dsm::MakePlanner(kind, rig.ctx);
    for (const dsm::Sharing& sharing : sequence) {
      const auto choice = planner->ProcessSharing(sharing);
      if (!choice.ok()) {
        std::fprintf(stderr, "rejected: %s\n",
                     choice.status().ToString().c_str());
      }
    }
    std::printf("%-12s %16.4f %14zu\n", dsm::PlannerName(kind),
                rig.global_plan->TotalCost(),
                rig.global_plan->num_alive_views());
    if (kind == dsm::PlannerKind::kManagedRisk) {
      mr_cost = rig.global_plan->TotalCost();
      mr_world = std::move(world);
      mr_rig = std::move(rig);
    }
  }

  // Fair costing on MANAGEDRISK's global plan (as in Section 6.1.2).
  dsm::LpcCalculator lpc(mr_rig.enumerator.get(), mr_world.model.get());
  const auto problem = dsm::BuildFairCostProblem(*mr_rig.global_plan, &lpc);
  if (!problem.ok()) return 1;
  const auto fair =
      dsm::FairCost::Compute(problem->entries, problem->global_cost);
  if (!fair.ok()) return 1;
  const auto even =
      dsm::EvenSplitCosts(*mr_rig.global_plan, problem->ids);
  if (!even.ok()) return 1;

  const dsm::FairnessReport fair_report = dsm::EvaluateFairness(
      problem->entries, problem->global_cost, fair->ac);
  const dsm::FairnessReport even_report = dsm::EvaluateFairness(
      problem->entries, problem->global_cost, *even);

  std::printf("\nfair costing over the ManagedRisk global plan ($%.4f):\n",
              mr_cost);
  std::printf("%-12s %8s %8s %10s %10s\n", "algorithm", "alpha", "LPC",
              "Identical", "Contained");
  std::printf("%-12s %8.3f %8.3f %10.3f %10.3f\n", "FairCost",
              fair_report.alpha, fair_report.lpc_fraction,
              fair_report.identical_fraction,
              fair_report.contained_fraction);
  std::printf("%-12s %8.3f %8.3f %10.3f %10.3f\n", "EvenSplit",
              even_report.alpha, even_report.lpc_fraction,
              even_report.identical_fraction,
              even_report.contained_fraction);

  std::printf("\nfirst five attributed costs (FairCost vs EvenSplit):\n");
  for (size_t i = 0; i < problem->ids.size() && i < 5; ++i) {
    std::printf("  sharing %2llu: %10.4f vs %10.4f (LPC %10.4f)\n",
                static_cast<unsigned long long>(problem->ids[i]),
                fair->ac[i], (*even)[i], problem->entries[i].lpc);
  }
  return 0;
}
