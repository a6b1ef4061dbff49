// The market benchmark: seeded market sessions driven through the public
// API the way examples/market_session.cpp wires it — admit (MANAGEDRISK)
// → journal → bill (FAIRCOST) → register the buyer view → maintenance
// ticks with scheduled server failures and recoveries — timed per call
// from outside the library. README.md in this directory lists the
// workloads, the metrics and which layer moves which metric.
//
//   market_bench [--smoke] --workload <name> --seed <n> --seconds <s>
//                --trace <0|1> [--commit <sha>]
//
// perfbench/run.py builds it and is the entry point. --smoke shrinks every
// workload to a tenth, for the benchmark's own smoke test.
//
// A run repeats the workload's session until `--seconds` have elapsed, at
// least kMinSessions times, cycling through the workload's input sets (all
// seeded from --seed). Per input set it takes medians over sessions and
// percentiles over the pooled per-call samples, and reports the mean over
// the sets. Timings are CPU time at a reference speed (CalibrationMs).
// --trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
// untraced sessions and prints the per-layer metrics. The last stdout line
// is one JSON object {correct, attempted, failed, metrics}; a session that
// fails a correctness check makes the run print no metrics and exit 1.

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "cost/default_cost_model.h"
#include "cost/table_cost_model.h"
#include "costing/costing_session.h"
#include "costing/lpc.h"
#include "globalplan/global_plan.h"
#include "io/plan_journal.h"
#include "market/simulation.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "online/managed_risk.h"
#include "online/recovery_planner.h"
#include "plan/enumerator.h"
#include "plan/join_graph.h"
#include "workload/synthetic.h"
#include "workload/twitter.h"

#ifndef DSM_BENCH_BUILD_TYPE
#define DSM_BENCH_BUILD_TYPE "unknown"
#endif

namespace dsm {
namespace perfbench {
namespace {

// Paces the run only: `--seconds` is wall time.
using Clock = std::chrono::steady_clock;

constexpr size_t kServers = 6;
// Three sessions give a set-up median that excludes the cold first one.
constexpr size_t kMinSessions = 3;
// Traced runs need two traced and two untraced sessions for the overhead.
constexpr size_t kMinTracedSessions = 4;
// The tail percentile: at the per-run sample counts of every workload
// (>= 200 per run) it keeps at least ten samples beyond it.
constexpr double kTail = 0.95;
constexpr double kTailBand = 0.02;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Every reported timing is CPU time of the whole process, pool workers
// included, at reference speed (see CalibrationMs). On a shared host wall
// time also counts the slices given to other tenants: it moved run_s by
// half its median between runs of one build. With paravirtual steal
// accounting the kernel leaves the time the hypervisor steals out of CPU
// time too.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// CPU time of a fixed task that uses no library code: dependent probes
// into a 128 KiB table, warmed first so that neither the library's cache
// footprint nor its memory traffic reaches it. The speed of the cores a
// shared host hands out still moves this CPU time, by 15% within minutes,
// and moves the session's timings with it. Each session divides its
// timings by the median of its calibrations before ticks and multiplies
// by kReferenceCalibrationMs, about the median on a 4-vCPU VM, so every
// timing is reported at that reference speed.
constexpr double kReferenceCalibrationMs = 0.25;
volatile uint64_t calibration_sink = 0;

double CalibrationMs() {
  static std::vector<uint64_t>* const table =
      new std::vector<uint64_t>(size_t{1} << 14, 1);
  std::vector<uint64_t>& slots = *table;
  const uint64_t mask = slots.size() - 1;
  uint64_t acc = 0;
  for (const uint64_t v : slots) acc += v;
  const double start = CpuSeconds();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 40000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += slots[(x + acc) & mask];
    slots[(x >> 20) & mask] += acc;
  }
  const double ms = (CpuSeconds() - start) * 1e3;
  calibration_sink = acc;
  return ms;
}

// The simulated tuple stream is the same for every --seed: with compressed
// value domains, the join fan-out of a seeded stream moved tick_p50_ms by
// about 20% between seeds, which would hide regressions of that size.
constexpr uint64_t kTupleStreamSeed = 20140622;

// splitmix64: independent sub-seeds for the arrival sequence and the
// synthetic cost table, both derived from the one --seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --- Workloads ---------------------------------------------------------------

// Every tick: round(update_rate * kScale) tuples per table, kDeleteFraction
// of them deletes (so table sizes stay steady after the insert-only
// warm-up), values from domains compressed by kDomainCompression so the
// short stream produces join hits.
constexpr double kScale = 0.1;
constexpr double kDeleteFraction = 0.5;
constexpr double kDomainCompression = 1e-4;

struct ServerEvent {
  int tick = 0;  // relative to the first timed tick
  ServerId server = 0;
  bool up = false;
};

struct Workload {
  bool star = false;
  size_t setup_arrivals = 0;  // admitted during set-up
  size_t timed_arrivals = 0;  // admitted at the start of the timed session
  int arrivals_per_tick = 0;  // admitted before each timed tick
  int warmup_ticks = 0;       // insert-only ticks at the end of set-up
  int ticks = 0;
  // Failures: the k-th (k < failures) takes server (1 + k) mod kServers
  // down at tick first_failure + k * failure_period; it returns
  // `down_ticks` later.
  int first_failure = 0;
  int failure_period = 0;
  int failures = 1;
  int down_ticks = 3;
  // Sessions of a run cycle through this many seeded input sets.
  size_t input_sets = 1;
  std::vector<ServerEvent> events;  // derived from the fields above
};

// `smoke` keeps each workload's shape at a tenth of its size (30 ticks),
// for the benchmark's own seconds-scale smoke test.
bool FindWorkload(const std::string& name, bool smoke, Workload* out) {
  Workload w;
  if (name == "twitter_steady") {
    // Maintenance-heavy: heavily overlapping sharings, admitted up front;
    // many arrivals take the identical-plan fast path.
    w.setup_arrivals = 400;
    w.warmup_ticks = 20;
    w.ticks = 300;
    w.first_failure = 150;
  } else if (name == "star_admission") {
    // Admission- and billing-heavy: exhaustive enumeration and FAIRCOST
    // over a population growing to 2000; dimension tables receive no
    // tuples, so maintenance probes nothing. The first 250 sharings are
    // the set-up population.
    w.star = true;
    w.setup_arrivals = 250;
    w.timed_arrivals = 1750;
    w.ticks = 100;
    w.first_failure = 40;
  } else if (name == "twitter_faults") {
    // Arrivals interleaved with ticks and a rolling server failure: the
    // global plan removes and re-adds sharings, FAIRCOST refreshes after
    // removals, views are registered and recomputed mid-stream. Which
    // sharings a failure strands, and so the failure ticks and the tail of
    // admission and billing, depend on the inputs: over one input set
    // per run, failover_p50_ms and bill_p95_ms spread 13–18% across seeds,
    // and over three, admit_p95_ms and bill_p95_ms still 10–13%.
    w.setup_arrivals = 100;
    w.input_sets = 6;
    w.warmup_ticks = 20;
    w.ticks = 100;
    w.arrivals_per_tick = 2;
    w.failure_period = 20;
    w.failures = 5;
    w.down_ticks = 5;
  } else {
    return false;
  }
  if (smoke) {
    w.setup_arrivals /= 10;
    w.timed_arrivals /= 10;
    w.warmup_ticks /= 10;
    w.ticks = 30;
    w.first_failure = std::min(w.first_failure, 10);
  }
  for (int k = 0; k < w.failures; ++k) {
    const int down = w.first_failure + k * w.failure_period;
    if (down + w.down_ticks >= w.ticks) break;
    const auto server = static_cast<ServerId>((1 + k) % kServers);
    w.events.push_back({down, server, false});
    w.events.push_back({down + w.down_ticks, server, true});
  }
  *out = std::move(w);
  return true;
}

// --- Tracing from outside ----------------------------------------------------

// Wraps public calls in a span on the global tracer and drains the tracer
// after each call, so the library's own spans nest under the wrapper and
// the ring never overflows. Accumulates total and self time per span name.
class CallTracer {
 public:
  explicit CallTracer(bool enabled) : enabled_(enabled) {
    obs::Tracer::Global().Clear();
  }

  template <typename F>
  auto Call(const char* name, F&& fn) {
    if (!enabled_) return fn();
    auto result = [&] {
      obs::ScopedSpan span(&obs::Tracer::Global(), name);
      return fn();
    }();
    Drain();
    return result;
  }

  double TotalMs(const std::string& name) const { return Get(name).total_ms; }
  double SelfMs(const std::string& name) const { return Get(name).self_ms; }
  uint64_t dropped() const { return dropped_; }

 private:
  struct Agg {
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  Agg Get(const std::string& name) const {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? Agg{} : it->second;
  }

  void Drain() {
    obs::Tracer& tracer = obs::Tracer::Global();
    dropped_ += tracer.dropped();
    const std::vector<obs::TraceSpan> spans = tracer.spans();
    tracer.Clear();
    std::map<uint64_t, uint64_t> child_ns;
    for (const obs::TraceSpan& s : spans) {
      if (s.parent_id != 0) child_ns[s.parent_id] += s.duration_ns;
    }
    for (const obs::TraceSpan& s : spans) {
      const auto it = child_ns.find(s.id);
      const uint64_t children = it == child_ns.end() ? 0 : it->second;
      Agg& agg = by_name_[s.name];
      agg.total_ms += static_cast<double>(s.duration_ns) / 1e6;
      agg.self_ms +=
          static_cast<double>(s.duration_ns - std::min(s.duration_ns,
                                                       children)) /
          1e6;
    }
  }

  bool enabled_;
  uint64_t dropped_ = 0;
  std::map<std::string, Agg> by_name_;
};

// --- One session -------------------------------------------------------------

// Everything that must repeat exactly across sessions of one seed.
struct Fingerprint {
  double plan_cost = 0.0;
  uint64_t join_work = 0;
  uint64_t updates_applied = 0;
  uint64_t arrivals = 0;
  uint64_t rejected = 0;
  uint64_t journal_records = 0;
  uint64_t view_refreshes = 0;
  uint64_t recomputes = 0;
  int migrated = 0;
  int parked = 0;
  int readmitted = 0;

  bool operator==(const Fingerprint&) const = default;
};

struct SessionResult {
  std::string error;  // empty = every check passed
  bool traced = false;
  size_t input_set = 0;
  double setup_s = 0.0;
  double run_s = 0.0;
  std::vector<double> admit_ms;
  std::vector<double> bill_ms;
  std::vector<double> tick_ms;
  std::vector<double> failover_ms;
  double calibration_ms = 0.0;  // median over the session
  // Tuples applied on, and wall time of, the ticks without a server event.
  uint64_t maint_tuples = 0;
  double maint_s = 0.0;
  uint64_t ticks = 0;
  uint64_t trace_dropped = 0;
  Fingerprint fp;
  std::map<std::string, double> layer;  // per-layer values, traced only
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

uint64_t CounterValue(const obs::MetricsSnapshot& snap,
                      const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

double GaugeValue(const obs::MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.gauges.find(name);
  return it == snap.gauges.end() ? 0.0 : it->second;
}

// `n` arrivals drawn from the 25 Table 1 queries in shuffled rounds of 25.
// The mix is the same for every seed — in round r, query q goes to server
// (q + r) mod kServers and carries predicates when q + r is even, one or
// two alternately, whose tables and comparison operators (<, >, =) follow
// a fixed pattern over the rounds — so the seed moves the order, the
// predicates' columns and constants and the tuple stream, and not what
// shifts percentiles between seeds: how many arrivals are repeats, and
// which table of which query carries a predicate that keeps every
// simulated tuple (< against a constant drawn from the whole catalog
// domain, at whose bottom the compressed tuple domain sits) or almost
// none. With a random table per predicate, tick_p50_ms differed by 30%
// between seeds.
std::vector<Sharing> TwitterArrivals(const Catalog& catalog,
                                     const TwitterTables& tables,
                                     const Cluster& cluster, size_t n,
                                     uint64_t seed) {
  static constexpr CompareOp kOps[] = {CompareOp::kLt, CompareOp::kGt,
                                       CompareOp::kEq};
  const std::vector<Sharing> base = TwitterBaseSharings(tables, cluster);
  Rng rng(seed);
  std::vector<size_t> round(base.size());
  std::vector<Sharing> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t r = i / base.size();
    if (i % base.size() == 0) {
      for (size_t q = 0; q < round.size(); ++q) round[q] = q;
      for (size_t k = round.size() - 1; k > 0; --k) {
        std::swap(round[k], round[static_cast<size_t>(rng.UniformInt(
                                0, static_cast<int64_t>(k)))]);
      }
    }
    const size_t q = round[i % base.size()];
    const std::vector<TableId> members = base[q].tables().ToVector();
    std::vector<Predicate> preds;
    const size_t count = (q + r) % 2 == 0 ? 1 + (q + r) / 2 % 2 : 0;
    for (size_t k = 0; k < count; ++k) {
      const size_t slot = r / 2 + k;  // 0..8 over a query's rounds
      Predicate p;
      p.table = members[slot % members.size()];
      const TableDef& def = catalog.table(p.table);
      p.column = static_cast<uint16_t>(
          rng.UniformInt(0, static_cast<int64_t>(def.columns.size()) - 1));
      p.op = kOps[slot / members.size() % 3];
      const ColumnDef& col = def.columns[p.column];
      p.value = p.op == CompareOp::kEq
                    ? std::floor(rng.UniformDouble(col.min_value,
                                                   col.max_value + 1.0))
                    : rng.UniformDouble(col.min_value, col.max_value);
      preds.push_back(p);
    }
    out.emplace_back(base[q].tables(), std::move(preds),
                     static_cast<ServerId>((q + r) % kServers),
                     "buyer" + std::to_string(i));
  }
  return out;
}

// The planner stack of one market. Members are declared in wiring order
// so each one outlives everything that points at it.
struct Market {
  Catalog catalog;
  Cluster cluster;
  std::unique_ptr<JoinGraph> graph;
  std::unique_ptr<CostModel> model;
  std::unique_ptr<PlanEnumerator> enumerator;
  std::unique_ptr<GlobalPlan> global_plan;
  PlannerContext ctx;
  std::unique_ptr<ManagedRiskPlanner> planner;
  std::unique_ptr<RecoveryPlanner> recovery;
  std::unique_ptr<LpcCalculator> lpc;
  std::unique_ptr<CostingSession> costing;
  PlanJournal journal;  // in memory
  std::unique_ptr<MarketSimulation> sim;
  std::vector<Sharing> sequence;
};

Status BuildMarket(const Workload& w, uint64_t seed, Market* m) {
  for (size_t i = 0; i < kServers; ++i) {
    m->cluster.AddServer("m" + std::to_string(i));
  }
  const size_t total_arrivals =
      w.setup_arrivals + w.timed_arrivals +
      static_cast<size_t>(w.arrivals_per_tick) *
          static_cast<size_t>(w.ticks);
  if (w.star) {
    DSM_ASSIGN_OR_RETURN(const StarSchema schema,
                         BuildStarCatalog(&m->catalog, StarSchemaOptions{}));
    m->cluster.PlaceRoundRobin(m->catalog.num_tables());
    TableDrivenCostModel::Options cost_options;  // U[1, 1e5] (§6.1.2)
    cost_options.seed = SubSeed(seed, 3);
    m->model = std::make_unique<TableDrivenCostModel>(cost_options);
    StarSequenceOptions seq;
    seq.num_sharings = total_arrivals;
    seq.max_tables = 5;
    seq.dim_zipf = 0.8;
    seq.seed = SubSeed(seed, 1);
    m->sequence = GenerateStarSharings(schema, m->cluster, seq);
  } else {
    DSM_ASSIGN_OR_RETURN(const TwitterTables tables,
                         BuildTwitterCatalog(&m->catalog));
    m->cluster.PlaceRoundRobin(m->catalog.num_tables());
    m->model = std::make_unique<DefaultCostModel>(&m->catalog, &m->cluster);
    m->sequence = TwitterArrivals(m->catalog, tables, m->cluster,
                                  total_arrivals, SubSeed(seed, 1));
  }
  m->graph = std::make_unique<JoinGraph>(JoinGraph::FromCatalog(m->catalog));
  m->enumerator = std::make_unique<PlanEnumerator>(
      &m->catalog, &m->cluster, m->graph.get(), m->model.get());
  m->global_plan =
      std::make_unique<GlobalPlan>(&m->cluster, m->model.get());
  m->ctx = PlannerContext{&m->catalog,    &m->cluster,
                          m->graph.get(), m->model.get(),
                          m->global_plan.get(), m->enumerator.get()};
  m->planner = std::make_unique<ManagedRiskPlanner>(m->ctx);
  m->recovery = std::make_unique<RecoveryPlanner>(m->ctx);
  m->lpc = std::make_unique<LpcCalculator>(m->enumerator.get(),
                                           m->model.get());
  m->costing =
      std::make_unique<CostingSession>(m->global_plan.get(), m->lpc.get());
  DSM_RETURN_IF_ERROR(m->journal.Open());
  m->sim = std::make_unique<MarketSimulation>(&m->catalog, kTupleStreamSeed,
                                              kDomainCompression);
  m->sim->AttachFaultDomain(&m->cluster, m->recovery.get());
  for (const ServerEvent& e : w.events) {
    const int tick = w.warmup_ticks + e.tick;
    DSM_RETURN_IF_ERROR(e.up ? m->sim->ScheduleServerRecovery(tick, e.server)
                             : m->sim->ScheduleServerFailure(tick, e.server));
  }
  return Status::OK();
}

class Session {
 public:
  Session(const Workload& w, uint64_t seed, bool traced)
      : w_(w), seed_(seed), tracer_(traced) {
    result_.traced = traced;
  }

  SessionResult Run() {
    const Status status = RunChecked();
    if (!status.ok()) result_.error = status.ToString();
    result_.trace_dropped = tracer_.dropped();
    return std::move(result_);
  }

 private:
  Status RunChecked() {
    obs::MetricsRegistry::Global().Reset();
    const double setup_start = CpuSeconds();
    DSM_RETURN_IF_ERROR(BuildMarket(w_, seed_, &m_));
    for (size_t i = 0; i < w_.setup_arrivals; ++i) {
      DSM_RETURN_IF_ERROR(Arrive());
    }
    for (int t = 0; t < w_.warmup_ticks; ++t) {
      DSM_RETURN_IF_ERROR(tracer_.Call("bench/tick", [&] {
        return m_.sim->Run(1, kScale, /*delete_fraction=*/0.0);
      }));
    }
    result_.setup_s = CpuSeconds() - setup_start;

    std::vector<double> calibration_ms;
    double calibration_s = 0.0;  // excluded from run_s
    const double run_start = CpuSeconds();
    for (size_t i = 0; i < w_.timed_arrivals; ++i) {
      DSM_RETURN_IF_ERROR(Arrive());
    }
    result_.fp.plan_cost = m_.global_plan->TotalCost();
    const size_t alive_views = m_.global_plan->num_alive_views();
    std::vector<bool> event_tick(static_cast<size_t>(w_.ticks), false);
    for (const ServerEvent& e : w_.events) {
      event_tick[static_cast<size_t>(e.tick)] = true;
    }
    for (int t = 0; t < w_.ticks; ++t) {
      for (int a = 0; a < w_.arrivals_per_tick; ++a) {
        DSM_RETURN_IF_ERROR(Arrive());
      }
      const double calibration_start = CpuSeconds();
      calibration_ms.push_back(CalibrationMs());
      calibration_s += CpuSeconds() - calibration_start;
      const uint64_t before = m_.sim->updates_applied();
      const double start = CpuSeconds();
      DSM_RETURN_IF_ERROR(tracer_.Call("bench/tick", [&] {
        return m_.sim->Run(1, kScale, kDeleteFraction);
      }));
      const double secs = CpuSeconds() - start;
      const uint64_t applied = m_.sim->updates_applied() - before;
      result_.fp.updates_applied += applied;
      ++result_.ticks;
      if (event_tick[static_cast<size_t>(t)]) {
        result_.failover_ms.push_back(secs * 1e3);
      } else {
        result_.tick_ms.push_back(secs * 1e3);
        result_.maint_s += secs;
        result_.maint_tuples += applied;
      }
    }
    result_.run_s = CpuSeconds() - run_start - calibration_s;
    result_.calibration_ms = Median(calibration_ms);
    ToReferenceSpeed(kReferenceCalibrationMs / result_.calibration_ms);

    // Counters are read before VerifyViews, whose recomputations would
    // otherwise count as maintenance work.
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
    result_.fp.join_work = m_.sim->engine().work();
    result_.fp.journal_records = m_.journal.records_appended();
    result_.fp.view_refreshes =
        CounterValue(snap, "dsm.maintain.view_refreshes");
    result_.fp.recomputes = CounterValue(snap, "dsm.maintain.recomputes");
    const MarketSimulation::RecoveryStats& rs = m_.sim->recovery_stats();
    result_.fp.migrated = rs.migrated;
    result_.fp.parked = rs.parked;
    result_.fp.readmitted = rs.readmitted;
    if (result_.traced) RecordLayers(snap, alive_views);
    return CheckCorrectness();
  }

  // admit → journal → bill → register the buyer view. A rejection (no
  // feasible plan, e.g. the destination is down) is a market outcome, not
  // an error; any other non-OK status aborts the session.
  Status Arrive() {
    const Sharing& sharing = m_.sequence.at(next_arrival_++);
    ++result_.fp.arrivals;
    double start = CpuSeconds();
    const Result<PlanChoice> choice = tracer_.Call(
        "bench/admit", [&] { return m_.planner->ProcessSharing(sharing); });
    result_.admit_ms.push_back((CpuSeconds() - start) * 1e3);
    if (!choice.ok()) {
      if (choice.status().code() != StatusCode::kCapacityExceeded) {
        return choice.status();
      }
      ++result_.fp.rejected;
      return Status::OK();
    }
    DSM_RETURN_IF_ERROR(tracer_.Call("bench/journal", [&] {
      return m_.journal.Append(choice->id, sharing, choice->plan);
    }));
    start = CpuSeconds();
    const Result<CostingSession::Snapshot> bill =
        tracer_.Call("bench/bill", [&] { return m_.costing->Refresh(); });
    result_.bill_ms.push_back((CpuSeconds() - start) * 1e3);
    if (!bill.ok()) return bill.status();
    return tracer_.Call("bench/register_view", [&] {
      return m_.sim->AddBuyerView(choice->id, sharing.ResultKey());
    });
  }

  void ToReferenceSpeed(double factor) {
    result_.setup_s *= factor;
    result_.run_s *= factor;
    result_.maint_s *= factor;
    for (std::vector<double>* v : {&result_.admit_ms, &result_.bill_ms,
                                   &result_.tick_ms, &result_.failover_ms}) {
      for (double& ms : *v) ms *= factor;
    }
  }

  Status CheckCorrectness() {
    DSM_ASSIGN_OR_RETURN(const bool views_ok, m_.sim->VerifyViews());
    if (!views_ok) {
      return Status::Internal("a buyer view differs from its recomputation");
    }
    DSM_ASSIGN_OR_RETURN(const JournalReplay replay,
                         ReplayJournal(m_.journal.contents(), kServers));
    if (replay.records_recovered != m_.journal.records_appended() ||
        replay.tail_dropped || replay.bytes_dropped != 0) {
      return Status::Internal("journal replay lost records");
    }
    if (m_.costing->history().empty()) {
      return Status::Internal("no FAIRCOST snapshot was taken");
    }
    const CostingSession::Snapshot& last = m_.costing->history().back();
    for (const auto& [id, ac] : last.ac) {
      const auto lpc = last.lpc.find(id);
      if (lpc == last.lpc.end() || !std::isfinite(ac) ||
          ac > lpc->second * (1.0 + 1e-9) + 1e-12) {
        return Status::Internal("attributed cost above LPC for sharing " +
                                std::to_string(id));
      }
    }
    return Status::OK();
  }

  void RecordLayers(const obs::MetricsSnapshot& snap, size_t alive_views) {
    const auto counter = [&](const char* name) {
      return static_cast<double>(CounterValue(snap, name));
    };
    std::map<std::string, double>& l = result_.layer;
    l["plan.enumerate_ms"] = tracer_.SelfMs("plan/enumerate");
    l["plan.plans_per_sharing"] = Ratio(counter("dsm.plan.plans_emitted"),
                                        counter("dsm.plan.enumerations"));
    l["online.admit_self_ms"] = tracer_.SelfMs("online/process_sharing");
    l["online.identical_hit_ratio"] =
        Ratio(counter("dsm.online.reuse_identical_hits"),
              static_cast<double>(result_.fp.arrivals));
    l["online.pool_inline_ratio"] = Ratio(
        counter("dsm.common.pool_tasks_inline"), counter("dsm.common.pool_tasks"));
    const double index_hits = counter("dsm.globalplan.reuse_index_hits");
    l["globalplan.reuse_index_hit_ratio"] = Ratio(
        index_hits, index_hits + counter("dsm.globalplan.reuse_index_misses"));
    l["globalplan.alive_views"] = static_cast<double>(alive_views);
    const double reuse_hits = counter("dsm.globalplan.reuse_hits");
    l["globalplan.reuse_ratio"] =
        Ratio(reuse_hits, reuse_hits + counter("dsm.globalplan.reuse_misses"));
    const double refresh_ms = tracer_.TotalMs("bench/bill");
    const double faircost_ms = tracer_.TotalMs("costing/faircost");
    l["costing.refresh_ms"] = refresh_ms;
    l["costing.faircost_ms"] = faircost_ms;
    l["costing.dag_ms"] = refresh_ms - faircost_ms;
    const double compared = counter("dsm.costing.dag_pairs_compared");
    l["costing.dag_pairs_compared"] = compared;
    l["costing.dag_skip_ratio"] = Ratio(
        counter("dsm.costing.dag_pairs_skipped"),
        compared + counter("dsm.costing.dag_pairs_skipped"));
    l["io.append_ms"] = tracer_.TotalMs("bench/journal");
    l["io.journal_bytes"] = static_cast<double>(m_.journal.contents().size());
    const double propagate_ms = tracer_.TotalMs("maintain/apply_update");
    l["maintain.propagate_ms"] = propagate_ms;
    l["maintain.join_work"] = static_cast<double>(result_.fp.join_work);
    l["maintain.view_refreshes"] =
        static_cast<double>(result_.fp.view_refreshes);
    const double cache_hits = counter("dsm.maintain.operand_cache_hits");
    l["maintain.operand_cache_hit_ratio"] = Ratio(
        cache_hits, cache_hits + counter("dsm.maintain.operand_cache_builds"));
    l["maintain.operand_cache_patches"] =
        counter("dsm.maintain.operand_cache_patches");
    l["maintain.recomputes"] = static_cast<double>(result_.fp.recomputes);
    l["maintain.resident_bytes"] =
        GaugeValue(snap, "dsm.maintain.resident_bytes");
    l["maintain.dict_entries"] = GaugeValue(snap, "dsm.maintain.dict_entries");
    l["market.tick_rest_ms"] = tracer_.TotalMs("bench/tick") - propagate_ms;
    l["market.register_view_ms"] = tracer_.TotalMs("bench/register_view");
    l["recovery.server_down_ms"] = tracer_.TotalMs("recovery/server_down");
    l["recovery.migrations"] = counter("dsm.recovery.migrations");
    l["recovery.parkings"] = counter("dsm.recovery.parkings");
    l["recovery.readmit_ratio"] = Ratio(counter("dsm.recovery.readmissions"),
                                        counter("dsm.recovery.retry_attempts"));
    l["trace.dropped"] = static_cast<double>(tracer_.dropped());
  }

  const Workload& w_;
  uint64_t seed_;
  CallTracer tracer_;
  Market m_;
  size_t next_arrival_ = 0;
  SessionResult result_;
};

// --- Reporting ---------------------------------------------------------------

// Nearest-rank percentile of `v` (q in (0, 1]); 0 for no samples.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

// The tail percentile, smoothed: the mean of the samples ranked within
// kTailBand of kTail. The tails are sparse — a few calls of very different
// cost per session — so the single sample at the nearest rank jumped by
// 20% between runs of one seed (bill_p95_ms on twitter_faults).
double TailPercentile(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto lo = static_cast<size_t>(std::floor((kTail - kTailBand) * n));
  const auto hi = std::clamp<size_t>(
      static_cast<size_t>(std::ceil((kTail + kTailBand) * n)), lo + 1,
      v.size());
  return std::accumulate(v.begin() + static_cast<std::ptrdiff_t>(lo),
                         v.begin() + static_cast<std::ptrdiff_t>(hi), 0.0) /
         static_cast<double>(hi - lo);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

std::vector<double> Pool(const std::vector<SessionResult>& sessions,
                         std::vector<double> SessionResult::*field) {
  std::vector<double> out;
  for (const SessionResult& s : sessions) {
    out.insert(out.end(), (s.*field).begin(), (s.*field).end());
  }
  return out;
}

// The end-to-end metrics of the sessions on one input set.
std::vector<Metric> SetMetrics(const std::vector<SessionResult>& sessions) {
  std::vector<double> setup, run, rate;
  double ops = 0.0;
  double missed = 0.0;
  double plan_cost = 0.0;
  for (const SessionResult& s : sessions) {
    plan_cost += s.fp.plan_cost;
    setup.push_back(s.setup_s);
    run.push_back(s.run_s);
    rate.push_back(Ratio(static_cast<double>(s.maint_tuples), s.maint_s));
    ops += static_cast<double>(s.fp.arrivals + s.ticks);
    missed += static_cast<double>(s.fp.rejected);
  }
  const size_t n = sessions.size();
  std::vector<Metric> out;
  out.push_back({"setup_s", Median(setup), "s", n});
  out.push_back({"run_s", Median(run), "s", n});
  const auto percentiles = [&](const std::string& stem,
                               std::vector<double> SessionResult::*field,
                               bool tail) {
    const std::vector<double> v = Pool(sessions, field);
    out.push_back({stem + "_p50_ms", Percentile(v, 0.5), "ms", v.size()});
    if (tail) {
      out.push_back({stem + "_p95_ms", TailPercentile(v), "ms", v.size()});
    }
  };
  percentiles("admit", &SessionResult::admit_ms, true);
  percentiles("bill", &SessionResult::bill_ms, true);
  percentiles("tick", &SessionResult::tick_ms, true);
  out.push_back({"maint_tuples_per_s", Median(rate), "tuples/s", n});
  percentiles("failover", &SessionResult::failover_ms, false);
  out.push_back({"served_frac", 1.0 - Ratio(missed, ops), "ratio", n});
  out.push_back({"plan_cost_usd", plan_cost / static_cast<double>(n),
                 "usd/time_unit", n});
  out.push_back({"peak_rss_mb", PeakRssMb(), "MB", 1});
  return out;
}

// Each metric is taken per input set, then averaged over the sets, each
// set weighing the same however many sessions ran it. Pooling the sets'
// samples first would put a percentile between the sets' modes:
// tick_p50_ms on twitter_faults then spread 22% across seeds.
std::vector<Metric> EndToEnd(const std::vector<SessionResult>& sessions,
                             size_t sets) {
  std::vector<Metric> out;
  size_t ran = 0;
  for (size_t set = 0; set < sets; ++set) {
    std::vector<SessionResult> group;
    for (const SessionResult& s : sessions) {
      if (s.input_set == set) group.push_back(s);
    }
    if (group.empty()) continue;
    ++ran;
    const std::vector<Metric> m = SetMetrics(group);
    if (out.empty()) {
      out = m;
      continue;
    }
    for (size_t k = 0; k < m.size(); ++k) {
      out[k].value += m[k].value;
      out[k].samples += m[k].samples;
    }
  }
  for (Metric& m : out) m.value /= static_cast<double>(ran);
  out.back().samples = 1;  // peak_rss_mb is one process-wide reading
  return out;
}

// Units of the per-layer metrics, in report order.
const std::vector<std::pair<std::string, std::string>>& LayerUnits() {
  static const auto* const units =
      new std::vector<std::pair<std::string, std::string>>{
          {"plan.enumerate_ms", "ms"},
          {"plan.plans_per_sharing", "count"},
          {"online.admit_self_ms", "ms"},
          {"online.identical_hit_ratio", "ratio"},
          {"online.pool_inline_ratio", "ratio"},
          {"globalplan.reuse_index_hit_ratio", "ratio"},
          {"globalplan.alive_views", "count"},
          {"globalplan.reuse_ratio", "ratio"},
          {"costing.refresh_ms", "ms"},
          {"costing.faircost_ms", "ms"},
          {"costing.dag_ms", "ms"},
          {"costing.dag_pairs_compared", "count"},
          {"costing.dag_skip_ratio", "ratio"},
          {"io.append_ms", "ms"},
          {"io.journal_bytes", "bytes"},
          {"maintain.propagate_ms", "ms"},
          {"maintain.join_work", "count"},
          {"maintain.view_refreshes", "count"},
          {"maintain.operand_cache_hit_ratio", "ratio"},
          {"maintain.operand_cache_patches", "count"},
          {"maintain.recomputes", "count"},
          {"maintain.resident_bytes", "bytes"},
          {"maintain.dict_entries", "count"},
          {"market.tick_rest_ms", "ms"},
          {"market.register_view_ms", "ms"},
          {"recovery.server_down_ms", "ms"},
          {"recovery.migrations", "count"},
          {"recovery.parkings", "count"},
          {"recovery.readmit_ratio", "ratio"},
          {"trace.dropped", "count"},
      };
  return *units;
}

std::vector<Metric> PerLayer(const std::vector<SessionResult>& sessions) {
  std::vector<Metric> out;
  std::vector<double> traced_run, plain_run;
  for (const SessionResult& s : sessions) {
    (s.traced ? traced_run : plain_run).push_back(s.run_s);
  }
  for (const auto& [name, unit] : LayerUnits()) {
    std::vector<double> v;
    for (const SessionResult& s : sessions) {
      if (s.traced) v.push_back(s.layer.at(name));
    }
    // Drops are summed, not averaged: any dropped span is a failure.
    const double value = name == "trace.dropped"
                             ? std::accumulate(v.begin(), v.end(), 0.0)
                             : Median(v);
    out.push_back({name, value, unit, v.size()});
  }
  out.push_back({"trace.overhead_frac",
                 Ratio(Median(traced_run), Median(plain_run)) - 1.0, "ratio",
                 traced_run.size()});
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  int i = 1;
  if (argc > 1 && std::string(argv[1]) == "--smoke") {
    args->smoke = true;
    i = 2;
  }
  if ((argc - i) % 2 != 0) return false;
  for (; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0.0)) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: market_bench [--smoke] --workload <twitter_steady|"
                 "star_admission|twitter_faults> --seed <n> --seconds <s> "
                 "--trace <0|1> [--commit <sha>]\n");
    return 2;
  }
  Workload workload;
  if (!FindWorkload(args.workload, args.smoke, &workload)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Sessions cycle through the workload's input sets, set 0 being the
  // inputs of --seed itself, at least until one set has run twice. Each
  // session is checked against the first session on the same inputs.
  // Traced runs run each set twice in a row, traced and then untraced, so
  // that the tracing overhead compares sessions on the same inputs.
  const size_t sets = workload.input_sets;
  const size_t min_sessions =
      args.trace ? kMinTracedSessions
                 : std::max(args.smoke ? 2 : kMinSessions, sets + 1);
  const Clock::time_point start = Clock::now();
  std::vector<SessionResult> sessions;
  std::vector<size_t> first_of_set(sets, SIZE_MAX);
  std::string error;
  while (sessions.size() < min_sessions ||
         SecondsSince(start) < args.seconds) {
    const size_t i = sessions.size();
    const size_t set = (args.trace ? i / 2 : i) % sets;
    const uint64_t seed = set == 0 ? args.seed : SubSeed(args.seed, 16 + set);
    const bool traced = args.trace && i % 2 == 0;
    SessionResult s = Session(workload, seed, traced).Run();
    s.input_set = set;
    std::fprintf(stderr,
                 "session %zu%s: setup_s %.4f run_s %.4f admit_p50_ms %.4f "
                 "bill_p50_ms %.4f tick_p50_ms %.3f tick_p95_ms %.3f "
                 "failover_p50_ms %.2f calib_ms %.4f\n",
                 sessions.size(), traced ? " (traced)" : "", s.setup_s,
                 s.run_s, Percentile(s.admit_ms, 0.5),
                 Percentile(s.bill_ms, 0.5), Percentile(s.tick_ms, 0.5),
                 TailPercentile(s.tick_ms), Percentile(s.failover_ms, 0.5),
                 s.calibration_ms);
    if (!s.error.empty()) {
      error = s.error;
    } else if (first_of_set[set] == SIZE_MAX) {
      first_of_set[set] = i;
    } else if (!(s.fp == sessions[first_of_set[set]].fp)) {
      error = "session " + std::to_string(i) +
              " produced different counts from the same inputs";
    }
    sessions.push_back(std::move(s));
    if (!error.empty()) break;
  }

  uint64_t attempted = 0;
  uint64_t dropped = 0;
  for (const SessionResult& s : sessions) {
    attempted += s.fp.arrivals + s.ticks;
    dropped += s.trace_dropped;
  }

  obs::JsonValue stamp = obs::JsonValue::Object();
  stamp.Set("workload", args.workload);
  stamp.Set("seed", static_cast<int64_t>(args.seed));
  stamp.Set("sessions", static_cast<int64_t>(sessions.size()));
  stamp.Set("input_sets", static_cast<int64_t>(sets));
  stamp.Set("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  stamp.Set("pool_threads",
            static_cast<int64_t>(ResolveThreadCount(ThreadPoolOptions{})));
  stamp.Set("build_type", std::string(DSM_BENCH_BUILD_TYPE));
  stamp.Set("compiler", std::string(__VERSION__));
  stamp.Set("commit", args.commit);
  stamp.Set("trace", args.trace);
  stamp.Set("trace.dropped", static_cast<int64_t>(dropped));
  std::printf("stamp %s\n", stamp.Dump(-1).c_str());

  obs::JsonValue result = obs::JsonValue::Object();
  obs::JsonValue metrics = obs::JsonValue::Object();
  const bool correct = error.empty();
  if (correct) {
    const std::vector<Metric> report =
        args.trace ? PerLayer(sessions) : EndToEnd(sessions, sets);
    for (const Metric& m : report) {
      std::printf("%-34s %16.6f %-14s n=%zu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
      obs::JsonValue entry = obs::JsonValue::Object();
      entry.Set("value", m.value);
      entry.Set("unit", m.unit);
      metrics.Set(m.name, std::move(entry));
    }
  } else {
    std::fprintf(stderr, "correctness check failed: %s\n", error.c_str());
  }
  result.Set("correct", correct);
  result.Set("attempted", static_cast<int64_t>(attempted));
  result.Set("failed", static_cast<int64_t>(correct ? 0 : 1));
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump(-1).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace dsm

int main(int argc, char** argv) { return dsm::perfbench::Main(argc, argv); }
