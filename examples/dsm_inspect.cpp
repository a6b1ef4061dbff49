// dsm_inspect: provider tooling — dump, audit and re-cost a saved market
// state file (see src/io/market_io.h).
//
//   dsm_inspect <state-file>     inspect a saved market
//   dsm_inspect --demo [dir]     build a demo market, save it as
//                                dsm_demo_market.txt in `dir` (default
//                                /tmp), then inspect that file
//   dsm_inspect metrics [--json] run the demo workload, then dump the
//                                telemetry registry (Prometheus text by
//                                default, JSON with --json)
//   dsm_inspect trace            run the demo workload, then dump the
//                                recorded trace spans as JSON
//
// Shows the catalog, the cluster, every active sharing with its restored
// plan and reuse decisions, and the FAIRCOST bill.

#include <cstdio>
#include <fstream>
#include <sstream>

#include "costing/costing_session.h"
#include "io/market_io.h"
#include "market/rig.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "online/managed_risk.h"
#include "plan/explain.h"
#include "workload/scenario.h"

namespace {

// Plans `num_sharings` Twitter sharings (at most one predicate each) with
// MANAGEDRISK on `rig`, a plan state over `world`.
bool PlanDemoSharings(const dsm::TwitterScenario& world, const dsm::Rig& rig,
                      size_t num_sharings) {
  dsm::ManagedRiskPlanner planner(rig.ctx);
  dsm::TwitterSequenceOptions options;
  options.num_sharings = num_sharings;
  options.max_predicates = 1;
  options.seed = 7;
  for (const dsm::Sharing& sharing : dsm::GenerateTwitterSequence(
           *world.catalog, world.tables, *world.cluster, options)) {
    if (!planner.ProcessSharing(sharing).ok()) return false;
  }
  return true;
}

// Plans and costs a small Twitter workload so the telemetry registry and
// tracer have something to show.
int RunDemoWorkload() {
  const dsm::TwitterScenario world = dsm::MakeTwitterScenario(4);
  const dsm::Rig rig = dsm::MakeRig(world);
  if (!PlanDemoSharings(world, rig, 12)) return 1;
  dsm::LpcCalculator lpc(rig.enumerator.get(), world.model.get());
  dsm::CostingSession costing(rig.global_plan.get(), &lpc);
  return costing.Refresh().ok() ? 0 : 1;
}

int MetricsCommand(bool as_json) {
  if (RunDemoWorkload() != 0) {
    std::fprintf(stderr, "demo workload failed\n");
    return 1;
  }
  const dsm::obs::MetricsSnapshot snapshot =
      dsm::obs::MetricsRegistry::Global().Snapshot();
  if (as_json) {
    std::printf("%s\n", snapshot.ToJson().Dump(2).c_str());
  } else {
    std::printf("%s", snapshot.ToPrometheusText().c_str());
  }
  return 0;
}

int TraceCommand() {
  if (RunDemoWorkload() != 0) {
    std::fprintf(stderr, "demo workload failed\n");
    return 1;
  }
  std::printf("%s\n", dsm::obs::Tracer::Global().DumpJson(2).c_str());
  return 0;
}

constexpr const char* kDemoFile = "dsm_demo_market.txt";

int WriteDemoState(const std::string& path) {
  const dsm::TwitterScenario world = dsm::MakeTwitterScenario(4);
  const dsm::Rig rig = dsm::MakeRig(world);
  if (!PlanDemoSharings(world, rig, 8)) return 1;

  std::ofstream out(path);
  if (!dsm::WriteMarketState(*world.catalog, *world.cluster,
                             rig.global_plan.get(), &out)
           .ok()) {
    return 1;
  }
  // The file name only, so the output does not depend on the directory.
  std::printf("demo market saved as %s\n\n", kDemoFile);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  if (argc >= 2 && std::string(argv[1]) == "metrics") {
    const bool as_json = argc == 3 && std::string(argv[2]) == "--json";
    return MetricsCommand(as_json);
  }
  if (argc == 2 && std::string(argv[1]) == "trace") {
    return TraceCommand();
  }
  if ((argc == 2 || argc == 3) && std::string(argv[1]) == "--demo") {
    path = std::string(argc == 3 ? argv[2] : "/tmp") + "/" + kDemoFile;
    if (WriteDemoState(path) != 0) {
      std::fprintf(stderr, "failed to build demo state\n");
      return 1;
    }
  } else if (argc == 2) {
    path = argv[1];
  } else {
    std::fprintf(stderr,
                 "usage: dsm_inspect <state-file> | --demo [dir] | "
                 "metrics [--json] | trace\n");
    return 2;
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  auto state = dsm::ReadMarketState(&in);
  if (!state.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 state.status().ToString().c_str());
    return 1;
  }

  std::printf("catalog: %zu tables\n", state->catalog.num_tables());
  for (dsm::TableId t = 0; t < state->catalog.num_tables(); ++t) {
    const dsm::TableDef& def = state->catalog.table(t);
    const auto home = state->cluster.HomeOf(t);
    std::printf("  %-10s %10.0f rows, %8.1f updates/unit, on %s\n",
                def.name.c_str(), def.stats.cardinality,
                def.stats.update_rate,
                home.ok()
                    ? state->cluster.server(*home).name.c_str()
                    : "<unplaced>");
  }
  std::printf("cluster: %zu servers\n\n", state->cluster.num_servers());

  // Restore the global plan and audit it.
  dsm::Scenario world;
  world.catalog = std::make_unique<dsm::Catalog>(std::move(state->catalog));
  world.cluster = std::make_unique<dsm::Cluster>(std::move(state->cluster));
  world.FillDefaults();
  const dsm::Rig rig = dsm::MakeRig(world);
  dsm::GlobalPlan& global_plan = *rig.global_plan;
  if (!dsm::RestoreGlobalPlan(*state, &global_plan).ok()) {
    std::fprintf(stderr, "restore failed\n");
    return 1;
  }
  std::printf("%s\n", dsm::ExplainGlobalPlan(global_plan, *world.cluster,
                                             *world.catalog)
                          .c_str());
  for (const dsm::SharingStateEntry& entry : state->sharings) {
    std::printf("%s\n", dsm::ExplainSharing(global_plan, entry.id,
                                            *world.catalog)
                            .c_str());
  }

  // Re-cost the restored market.
  dsm::LpcCalculator lpc(rig.enumerator.get(), world.model.get());
  dsm::CostingSession costing(&global_plan, &lpc);
  const auto snapshot = costing.Refresh();
  if (!snapshot.ok()) {
    std::fprintf(stderr, "costing failed: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  std::printf("bill (alpha %.3f%s): total $%.5f\n", snapshot->alpha,
              snapshot->criteria_satisfied ? "" : ", LPC-overrun fallback",
              snapshot->global_cost);
  for (const auto& [id, ac] : snapshot->ac) {
    std::printf("  sharing %-4llu AC $%.5f  (LPC $%.5f)\n",
                static_cast<unsigned long long>(id), ac,
                snapshot->lpc.at(id));
  }
  return 0;
}
