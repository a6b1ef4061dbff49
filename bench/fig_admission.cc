// Admission & costing fast paths: (a) per-sharing planning time as the
// global plan grows to a thousand-plus alive views, and (b) FAIRCOST
// refresh time with the incremental containment DAG vs the scratch O(n²)
// rebuild as the sharing population grows (attributed costs are
// identical in both modes, enforced by the admission tests; only the wall
// clock differs). A last section (c) times failover: one server lost under
// N admitted sharings, then a forced retry of the parked ones once it
// returns, with the victims split into migrated, ruled out by liveness and
// parked.

#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_report.h"
#include "common/rng.h"
#include "costing/fair_cost.h"
#include "costing/incremental_containment.h"
#include "costing/lpc.h"
#include "costing/savings.h"
#include "obs/metrics.h"
#include "online/managed_risk.h"
#include "online/recovery_planner.h"
#include "workload/predicate_gen.h"
#include "workload/twitter.h"

namespace dsm {
namespace bench {
namespace {

// The dense-reuse market regime: every arrival is a predicated variant of
// one of the 25 base queries, with predicates drawn as random subsets of a
// small per-query pool. Keys recur across arrivals and predicate sets are
// subset-related, so each table-mask bucket accumulates hundreds of alive
// views, many of which genuinely subsume an incoming probe — the workload
// the reuse index exists for (fig6 covers the sparse-key regime).
std::vector<Sharing> AdmissionSequence(const TwitterScenario& world, size_t n,
                                       uint64_t seed) {
  const std::vector<Sharing> base =
      TwitterBaseSharings(world.tables, *world.cluster);
  Rng rng(seed);
  std::vector<std::vector<Predicate>> pools;
  pools.reserve(base.size());
  for (const Sharing& b : base) {
    pools.push_back(
        RandomPredicates(*world.catalog, b.tables(), /*count=*/5, &rng));
  }
  const auto num_servers =
      static_cast<int64_t>(world.cluster->num_servers());
  std::vector<Sharing> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const auto which =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(
                                                  base.size() - 1)));
    std::vector<Predicate> preds;
    for (const Predicate& p : pools[which]) {
      if (rng.Bernoulli(0.4)) preds.push_back(p);
    }
    const auto dest =
        static_cast<ServerId>(rng.UniformInt(0, num_servers - 1));
    out.emplace_back(base[which].tables(), std::move(preds), dest);
  }
  return out;
}

// Dry-runs every candidate plan and commits the cheapest feasible one
// with the LPC the dry run priced, as a planner does — the admission hot
// path with enumeration excluded, which fig6 reports separately.
bool PlanAndCommit(GlobalPlan* gp, const Sharing& sharing,
                   const PlanSpace& space, SharingId id) {
  const GlobalPlan::SpaceEvaluation evals = gp->EvaluateSpace(space);
  const int best = evals.CheapestFeasible();
  if (best < 0) return false;
  return gp->Commit(id, sharing, space, evals, static_cast<size_t>(best),
                    evals.lpc)
      .ok();
}

struct AdmissionResult {
  size_t alive_views = 0;
  LatencySummary latency;
};

// Grows a fresh global plan until `target_views` alive views, then times
// the admission of `probes` further sharings (enumeration pre-done).
AdmissionResult RunAdmission(size_t target_views, size_t probes,
                             uint64_t seed) {
  EnumeratorOptions enum_options;
  enum_options.per_subset_cap = 16;  // bound the 8/9-table plan explosion
  const TwitterScenario world = MakeTwitterScenario(6);
  const Rig rig = MakeRig(world, enum_options);
  // Dense reuse means most arrivals add at most a residual view, so the
  // sequence is oversized relative to the target view count.
  const auto sequence =
      AdmissionSequence(world, 2 * target_views + 4 * probes, seed);

  SharingId next_id = 1;
  size_t pos = 0;
  while (pos < sequence.size() &&
         rig.global_plan->num_alive_views() < target_views) {
    const auto plans = rig.enumerator->Enumerate(sequence[pos]);
    if (plans.ok()) {
      PlanAndCommit(rig.global_plan.get(), sequence[pos], *plans,
                    next_id++);
    }
    ++pos;
  }

  AdmissionResult result;
  result.alive_views = rig.global_plan->num_alive_views();
  std::vector<double> samples;
  for (size_t i = 0; i < probes && pos < sequence.size(); ++i, ++pos) {
    const auto plans = rig.enumerator->Enumerate(sequence[pos]);
    if (!plans.ok()) continue;
    const Timer timer;
    PlanAndCommit(rig.global_plan.get(), sequence[pos], *plans,
                  next_id++);
    samples.push_back(timer.Millis());
  }
  result.latency = LatencySummary::FromSamples(std::move(samples));
  return result;
}

struct RefreshResult {
  size_t sharings = 0;
  LatencySummary scratch;
  LatencySummary incremental;
};

// Admits `population` sharings, then measures per-arrival FAIRCOST
// refreshes with the scratch containment DAG vs the persistent index: one
// refresh is BuildFairCostProblem then FairCost::Compute with a
// CostingSession's options. Every record carries the LPC its admission
// priced, so neither side enumerates and only the containment DAG
// differs.
RefreshResult RunRefreshMode(size_t population, size_t refreshes,
                             uint64_t seed) {
  EnumeratorOptions enum_options;
  enum_options.per_subset_cap = 8;
  const TwitterScenario world = MakeTwitterScenario(6);
  const Rig rig = MakeRig(world, enum_options);
  TwitterSequenceOptions options;
  options.num_sharings = population + refreshes;
  options.max_predicates = 2;
  options.seed = seed;
  const auto sequence = GenerateTwitterSequence(
      *world.catalog, world.tables, *world.cluster, options);

  SharingId next_id = 1;
  size_t pos = 0;
  for (; pos < population && pos < sequence.size(); ++pos) {
    const auto plans = rig.enumerator->Enumerate(sequence[pos]);
    if (plans.ok()) {
      PlanAndCommit(rig.global_plan.get(), sequence[pos], *plans,
                    next_id++);
    }
  }

  LpcCalculator lpc(rig.enumerator.get(), world.model.get());
  IncrementalContainmentIndex index;
  FairCost::Options faircost_options;
  faircost_options.lpc_overrun_fallback = true;  // as CostingSession bills
  const auto refresh = [&](IncrementalContainmentIndex* dag_index) {
    const auto problem =
        BuildFairCostProblem(*rig.global_plan, &lpc, dag_index);
    if (problem.ok()) {
      (void)FairCost::Compute(problem->entries, problem->global_cost,
                              faircost_options);
    }
  };
  // Warm-up: builds the persistent index over the population.
  refresh(&index);
  refresh(nullptr);

  RefreshResult result;
  std::vector<double> scratch_ms;
  std::vector<double> inc_ms;
  for (size_t i = 0; i < refreshes && pos < sequence.size(); ++i, ++pos) {
    const auto plans = rig.enumerator->Enumerate(sequence[pos]);
    if (!plans.ok()) continue;
    if (!PlanAndCommit(rig.global_plan.get(), sequence[pos], *plans,
                       next_id++)) {
      continue;
    }
    {
      const Timer timer;
      refresh(nullptr);
      scratch_ms.push_back(timer.Millis());
    }
    {
      const Timer timer;
      refresh(&index);
      inc_ms.push_back(timer.Millis());
    }
  }
  result.sharings = rig.global_plan->num_sharings();
  result.scratch = LatencySummary::FromSamples(std::move(scratch_ms));
  result.incremental = LatencySummary::FromSamples(std::move(inc_ms));
  return result;
}

struct FailoverResult {
  size_t sharings = 0;
  size_t victims = 0;
  size_t migrated = 0;
  size_t ruled_out = 0;
  size_t parked = 0;
  size_t readmitted = 0;
  double server_down_ms = 0.0;
  double retry_ms = 0.0;
};

// Admits `population` Twitter sharings with MANAGEDRISK on six machines,
// loses server 1 (OnServerDown timed), brings it back and forces a retry
// of every parked sharing (RetryParked timed).
FailoverResult RunFailover(size_t population, uint64_t seed) {
  const TwitterScenario world = MakeTwitterScenario(6);
  const Rig rig = MakeRig(world);
  TwitterSequenceOptions options;
  options.num_sharings = population;
  options.max_predicates = 2;
  options.seed = seed;
  ManagedRiskPlanner planner(rig.ctx);
  for (const Sharing& s : GenerateTwitterSequence(
           *world.catalog, world.tables, *world.cluster, options)) {
    (void)planner.ProcessSharing(s);
  }

  FailoverResult result;
  result.sharings = rig.global_plan->num_sharings();
  RecoveryPlanner recovery(rig.ctx);
  constexpr ServerId kLost = 1;
  obs::Counter* ruled_out =
      obs::MetricsRegistry::Global().GetCounter("dsm.recovery.ruled_out");
  const uint64_t ruled_before = ruled_out->value();
  (void)world.cluster->MarkDown(kLost);
  {
    const Timer timer;
    const auto report = recovery.OnServerDown(kLost, /*now_tick=*/0);
    result.server_down_ms = timer.Millis();
    if (report.ok()) {
      result.migrated = report->migrated.size();
      result.parked = report->parked.size();
      result.victims = result.migrated + result.parked;
    }
  }
  result.ruled_out = static_cast<size_t>(ruled_out->value() - ruled_before);
  (void)world.cluster->MarkUp(kLost);
  {
    const Timer timer;
    const auto readmitted = recovery.RetryParked(1, /*force=*/true);
    result.retry_ms = timer.Millis();
    if (readmitted.ok()) result.readmitted = readmitted->size();
  }
  return result;
}

int Main(int argc, char** argv) {
  BenchReport report("fig_admission", argc, argv);
  const bool smoke = report.smoke();
  const bool full = FullScale();

  std::printf("Admission & costing fast paths\n\n");
  std::printf("(a) per-sharing planning time vs alive views "
              "(enumeration excluded, nproc %u)\n",
              std::thread::hardware_concurrency());
  std::printf("%-12s %10s %10s %12s %10s\n", "target_views", "alive",
              "mean(ms)", "median(ms)", "p95(ms)");
  report.BeginSection("admission_scaling");
  for (const size_t target : smoke ? std::vector<size_t>{60}
                             : full ? std::vector<size_t>{500, 1000, 2000,
                                                          4000}
                                    : std::vector<size_t>{250, 500, 1000,
                                                          2000}) {
    const AdmissionResult r = RunAdmission(target, smoke ? 8 : 50, 71);
    std::printf("%-12zu %10zu %10.3f %12.3f %10.3f\n", target,
                r.alive_views, r.latency.mean_ms, r.latency.median_ms,
                r.latency.p95_ms);
    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("target_views", static_cast<int64_t>(target));
    row.Set("alive_views", static_cast<int64_t>(r.alive_views));
    row.Set("nproc",
            static_cast<int64_t>(std::thread::hardware_concurrency()));
    row.Set("latency", r.latency.ToJson());
    report.Row(std::move(row));
  }

  std::printf("\n(b) FAIRCOST refresh per arrival: scratch vs incremental "
              "containment DAG (medians, nproc %u)\n",
              std::thread::hardware_concurrency());
  std::printf("%-10s %14s %18s %10s\n", "sharings", "scratch(ms)",
              "incremental(ms)", "speedup");
  report.BeginSection("faircost_refresh");
  for (const size_t population : smoke ? std::vector<size_t>{20}
                                 : full ? std::vector<size_t>{250, 500, 1000,
                                                              1500}
                                        : std::vector<size_t>{100, 250, 500,
                                                              1000}) {
    const RefreshResult r =
        RunRefreshMode(population, smoke ? 3 : 15, 172);
    const double speedup =
        r.incremental.median_ms > 0.0
            ? r.scratch.median_ms / r.incremental.median_ms
            : 0.0;
    std::printf("%-10zu %14.3f %18.3f %9.1fx\n", r.sharings,
                r.scratch.median_ms, r.incremental.median_ms, speedup);
    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("sharings", static_cast<int64_t>(r.sharings));
    row.Set("nproc",
            static_cast<int64_t>(std::thread::hardware_concurrency()));
    row.Set("scratch", r.scratch.ToJson());
    row.Set("incremental", r.incremental.ToJson());
    row.Set("speedup_incremental_vs_scratch", speedup);
    report.Row(std::move(row));
  }

  std::printf("\n(c) failover: lose server 1, then force a retry after it "
              "returns (median of %d runs, nproc %u)\n",
              smoke ? 1 : 5, std::thread::hardware_concurrency());
  std::printf("%-9s %8s %9s %10s %7s %11s %15s %9s\n", "sharings",
              "victims", "migrated", "ruled_out", "parked", "readmitted",
              "server_down(ms)", "retry(ms)");
  report.BeginSection("failover");
  for (const size_t population : smoke ? std::vector<size_t>{30}
                                       : std::vector<size_t>{100, 400,
                                                             1000}) {
    const int repeats = smoke ? 1 : 5;
    std::vector<double> down_ms;
    std::vector<double> retry_ms;
    FailoverResult r;
    for (int rep = 0; rep < repeats; ++rep) {
      r = RunFailover(population, 73);  // counts repeat exactly per seed
      down_ms.push_back(r.server_down_ms);
      retry_ms.push_back(r.retry_ms);
    }
    const LatencySummary down = LatencySummary::FromSamples(down_ms);
    const LatencySummary retry = LatencySummary::FromSamples(retry_ms);
    std::printf("%-9zu %8zu %9zu %10zu %7zu %11zu %15.2f %9.2f\n",
                r.sharings, r.victims, r.migrated, r.ruled_out, r.parked,
                r.readmitted, down.median_ms, retry.median_ms);
    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("sharings", static_cast<int64_t>(r.sharings));
    row.Set("victims", static_cast<int64_t>(r.victims));
    row.Set("migrated", static_cast<int64_t>(r.migrated));
    row.Set("ruled_out", static_cast<int64_t>(r.ruled_out));
    row.Set("parked", static_cast<int64_t>(r.parked));
    row.Set("readmitted", static_cast<int64_t>(r.readmitted));
    row.Set("repeats", static_cast<int64_t>(repeats));
    row.Set("nproc",
            static_cast<int64_t>(std::thread::hardware_concurrency()));
    row.Set("server_down", down.ToJson());
    row.Set("forced_retry", retry.ToJson());
    report.Row(std::move(row));
  }

  return report.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace dsm

int main(int argc, char** argv) { return dsm::bench::Main(argc, argv); }
