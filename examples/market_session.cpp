// A complete market session, end to end:
//   1. buyers purchase dynamic sharings over the Twitter schema,
//   2. the online planner (MANAGEDRISK) integrates them into the global
//      plan, reusing views across buyers,
//   3. FAIRCOST attributes the operational cost after every arrival
//      (a CostingSession tracks the drift),
//   4. the market then actually RUNS: tweets and check-ins stream in,
//      the delta engine keeps every purchased view fresh, and the session
//      ends with an auditable bill and verified view contents.

#include <cstdio>
#include <memory>
#include <vector>

#include "costing/costing_session.h"
#include "market/rig.h"
#include "market/simulation.h"
#include "online/managed_risk.h"
#include "online/recovery_planner.h"
#include "plan/explain.h"
#include "workload/scenario.h"

int main() {
  // --- Setup: catalog, six machines, planner stack --------------------
  const dsm::TwitterScenario world = dsm::MakeTwitterScenario(6);
  const dsm::Rig rig = dsm::MakeRig(world);
  const dsm::Catalog& catalog = *world.catalog;
  dsm::Cluster& cluster = *world.cluster;
  dsm::GlobalPlan& global_plan = *rig.global_plan;
  dsm::ManagedRiskPlanner planner(rig.ctx);
  dsm::LpcCalculator lpc(rig.enumerator.get(), world.model.get());
  dsm::CostingSession costing(&global_plan, &lpc);

  // --- Buyers arrive online -------------------------------------------
  const auto base = dsm::TwitterBaseSharings(world.tables, cluster);
  const size_t picks[] = {4, 1, 5, 9, 4};  // S5, S2, S6, S10, S5 again
  std::printf("five buyers purchase sharings (S5, S2, S6, S10, S5):\n\n");
  std::vector<dsm::SharingId> ids;
  // The session keeps only its latest snapshot; the per-refresh AC table
  // printed below is collected from Refresh()'s return values.
  std::vector<dsm::SharingValues> ac_history;
  for (const size_t pick : picks) {
    const auto choice = planner.ProcessSharing(base[pick]);
    if (!choice.ok()) return 1;
    ids.push_back(choice->id);
    std::printf("buyer %llu: plan %-52s marginal $%.5f%s\n",
                static_cast<unsigned long long>(choice->id),
                choice->plan.ToString(catalog).c_str(),
                choice->marginal_cost,
                choice->reused_identical ? "  (identical; plan reused)"
                                         : "");
    const auto snapshot = costing.Refresh();
    if (!snapshot.ok()) return 1;
    ac_history.push_back(snapshot->ac);
  }

  std::printf("\n%s\n", dsm::ExplainGlobalPlan(global_plan, cluster,
                                               catalog)
                            .c_str());
  std::printf("%s\n", dsm::ExplainSharing(global_plan, ids[1], catalog)
                          .c_str());

  std::printf("attributed-cost history (AC per refresh; ACs drift as "
              "reuse appears, never above LPC):\n");
  for (size_t r = 0; r < ac_history.size(); ++r) {
    std::printf("  after buyer %zu:", r + 1);
    for (const auto& [id, ac] : ac_history[r]) {
      std::printf(" S%llu=$%.5f", static_cast<unsigned long long>(id), ac);
    }
    std::printf("\n");
  }
  std::printf("max AC increase across refreshes: %.3f of LPC (bound: 1)\n",
              costing.MaxAcIncreaseFractionOfLpc());

  // --- Run the market: stream updates, maintain views ------------------
  // Compress value domains so the short demo stream produces join hits.
  dsm::MarketSimulation sim(&catalog, 20140622,
                            /*domain_compression=*/1e-4);
  for (const dsm::SharingId id : ids) {
    const auto* rec = global_plan.record(id);
    if (rec == nullptr) return 1;
    if (!sim.AddBuyerView(id, rec->sharing.ResultKey()).ok()) return 1;
  }
  if (!sim.Run(/*ticks=*/6, /*scale=*/0.1).ok()) return 1;

  std::printf("\nafter %d ticks (%llu update tuples streamed):\n",
              sim.ticks_elapsed(),
              static_cast<unsigned long long>(sim.updates_applied()));
  for (const dsm::SharingId id : ids) {
    std::printf("  view of sharing %llu: %lld tuples\n",
                static_cast<unsigned long long>(id),
                static_cast<long long>(sim.ViewSize(id)));
  }
  const auto verified = sim.VerifyViews();
  if (!verified.ok() || !*verified) {
    std::fprintf(stderr, "view verification FAILED\n");
    return 1;
  }
  std::printf("\nall purchased views verified against recomputation ✓\n");

  // --- A machine dies mid-stream, then comes back -----------------------
  // m4 hosts SOCNET and is the delivery destination of both S5 buyers.
  // While it is down the market degrades instead of failing: sharings with
  // a surviving alternative migrate, the rest park (their views go stale
  // and stop being billed for maintenance) until the machine returns.
  dsm::RecoveryPlanner recovery(rig.ctx);
  sim.AttachFaultDomain(&cluster, &recovery);
  if (!sim.ScheduleServerFailure(/*tick=*/6, /*server=*/4).ok()) return 1;
  if (!sim.Run(/*ticks=*/2, /*scale=*/0.1).ok()) return 1;

  const auto& down = sim.recovery_stats();
  std::printf("\nmachine m4 died at tick 6:\n");
  std::printf("  sharings migrated to live machines: %d (extra cost "
              "$%.5f/time unit)\n",
              down.migrated, down.migration_cost_delta);
  std::printf("  sharings parked awaiting capacity:  %d (%zu views "
              "degraded)\n",
              down.parked, sim.parked_sharings());
  const auto degraded_ok = sim.VerifyViews();
  if (!degraded_ok.ok() || !*degraded_ok) {
    std::fprintf(stderr, "degraded-mode verification FAILED\n");
    return 1;
  }
  std::printf("  surviving views still verify against recomputation ✓\n");

  if (!sim.ScheduleServerRecovery(/*tick=*/8, /*server=*/4).ok()) return 1;
  if (!sim.Run(/*ticks=*/2, /*scale=*/0.1).ok()) return 1;
  const auto& up = sim.recovery_stats();
  std::printf("machine m4 returned at tick 8:\n");
  std::printf("  parked sharings re-admitted: %d (still parked: %zu)\n",
              up.readmitted, sim.parked_sharings());
  const auto recovered_ok = sim.VerifyViews();
  if (!recovered_ok.ok() || !*recovered_ok) {
    std::fprintf(stderr, "post-recovery verification FAILED\n");
    return 1;
  }
  std::printf("  all views (including re-admitted) verified ✓\n");

  // --- Final bill -------------------------------------------------------
  const dsm::CostingSession::Snapshot* last = costing.latest();
  std::printf("\nfinal bill (per time unit): total $%.5f, fairness alpha "
              "%.3f\n",
              last->global_cost, last->alpha);
  return 0;
}
