// RunReport: the machine-readable record of one market run.
//
// A seeded MarketSimulation epoch produces a RunReport carrying the
// provider-visible outcome (ticks, maintenance work, view sizes, fault and
// recovery tallies), the buyer-visible outcome (FAIRCOST bill, when the
// caller attaches one), and the full telemetry snapshot. ToJsonText() is
// deterministic: with include_timings disabled the document is
// byte-stable for a fixed PRNG seed, which is what the golden tests and
// any regression harness key on.
//
// The same module owns the schema validators: required-key checks for run
// reports and for the bench --json reports, shared by the gtest suite and
// the report_lint tool so there is exactly one definition of "valid".

#ifndef DSM_OBS_RUN_REPORT_H_
#define DSM_OBS_RUN_REPORT_H_

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace dsm {
namespace obs {

struct RunReportOptions {
  // Timing histograms are the only wall-clock-derived (hence
  // nondeterministic) content; excluding them makes the report byte-stable
  // across identically-seeded runs.
  bool include_timings = true;
  int indent = 2;
};

struct RunReport {
  int schema_version = 1;
  uint64_t seed = 0;
  int epoch = 0;  // number of completed Run() calls
  int ticks = 0;
  uint64_t updates_applied = 0;
  uint64_t maintenance_work = 0;  // tuple-pairs probed by view maintenance

  // A market simulation's fault/recovery tallies
  // (MarketSimulation::RecoveryStats).
  struct Recovery {
    int failures = 0;    // server-down events processed
    int recoveries = 0;  // server-up events processed
    int migrated = 0;    // sharings re-planned onto live servers
    int parked = 0;      // sharings parked (cumulative); JSON "parked_total"
    int readmitted = 0;  // parked sharings later re-admitted
    int last_event_tick = -1;
    // Σ (new − old) marginal cost over migrations: what the failures cost
    // the provider per time unit, the input to FAIRCOST re-pricing.
    double migration_cost_delta = 0.0;
  };
  Recovery recovery;
  size_t parked_now = 0;  // sharings parked at report time

  // (sharing id, view tuples) per registered buyer view.
  std::vector<std::pair<uint64_t, int64_t>> view_sizes;

  struct Costing {
    double alpha = 0.0;
    double global_cost = 0.0;
    bool criteria_satisfied = true;
    // (sharing id, attributed cost, LPC).
    std::vector<std::tuple<uint64_t, double, double>> sharings;
  };
  bool has_costing = false;
  Costing costing;

  MetricsSnapshot metrics;

  // Attaches the buyer-facing bill (typically from a
  // CostingSession::Snapshot, copied field by field by the caller).
  void SetCosting(Costing c) {
    has_costing = true;
    costing = std::move(c);
  }

  JsonValue ToJson(const RunReportOptions& options = {}) const;
  std::string ToJsonText(const RunReportOptions& options = {}) const {
    return ToJson(options).Dump(options.indent) + "\n";
  }
};

// Top-level keys every run report must carry.
// {"schema_version","seed","epoch","ticks","updates_applied",
//  "maintenance_work","recovery","views","telemetry"}
Status ValidateRunReportJson(const std::string& text);

// Bench --json documents: {"schema_version","bench","full_scale","smoke",
// "sections" (array of {"name","rows"}), "telemetry"}.
Status ValidateBenchReportJson(const std::string& text);

// Checks a valid bench document's deterministic numbers against the paper
// claim its figure reproduces (bounds and the paper's numbers are in
// EXPERIMENTS.md). Every row of every section must hold:
//  * fig7_fairness: `faircost_all_criteria` is true and `alpha_faircost`
//    >= `alpha_baseline`;
//  * fig8_faircost_time: `warm_lpc_enumerations` is 0 (a warm billing pass
//    enumerates no plan).
// A document with no rows, or of a bench with no claim check, fails.
Status CheckBenchClaims(const std::string& text);

}  // namespace obs
}  // namespace dsm

#endif  // DSM_OBS_RUN_REPORT_H_
