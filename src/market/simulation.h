// MarketSimulation: discrete-time execution of a data market.
//
// The paper's evaluation stops at the cost model; this module actually
// runs the market: every tick, each base table receives fresh tuples in
// proportion to its catalog update rate (plus a share of deletions), the
// delta engine maintains every buyer's purchased view, and the provider's
// measured maintenance work accumulates. It is the end-to-end harness the
// examples and integration tests use to demonstrate that planned sharings
// really stay fresh.
//
// With a cluster and a RecoveryPlanner attached, the simulation also
// exercises the provider's fault model: server failure/recovery events can
// be scheduled at specific ticks (or injected probabilistically through
// the "sim/random-server-failure" fault point). A failure migrates every
// recoverable sharing to live servers and parks the rest — parked buyer
// views are deactivated (also when the failover itself fails partway),
// and the views re-admitted together are revived in one engine call, one
// fill per table set (a revival that fails leaves the whole batch parked
// and its views inactive) — and the degradation is reported through
// parked_sharings()/recovery_stats() instead of failing opaquely.

#ifndef DSM_MARKET_SIMULATION_H_
#define DSM_MARKET_SIMULATION_H_

#include <map>
#include <vector>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "common/status.h"
#include "maintain/delta_engine.h"
#include "obs/run_report.h"
#include "online/recovery_planner.h"
#include "sharing/sharing.h"

namespace dsm {

// A random tuple matching `table`'s schema: each column drawn uniformly
// from [min_value, min_value + distinct_values).
Tuple RandomTupleForTable(const Catalog& catalog, TableId table, Rng* rng);

class MarketSimulation {
 public:
  // Cumulative fault/recovery bookkeeping, reported as is.
  using RecoveryStats = obs::RunReport::Recovery;

  // `domain_compression` < 1 shrinks every column's value domain by that
  // factor when generating tuples, raising join hit rates — useful for
  // demos that stream far fewer tuples than the catalog's cardinalities.
  // Maintenance runs on the calling thread; the simulation starts none.
  MarketSimulation(const Catalog* catalog, uint64_t seed,
                   double domain_compression = 1.0)
      : catalog_(catalog),
        engine_(catalog),
        rng_(seed),
        seed_(seed),
        domain_compression_(domain_compression) {}

  MarketSimulation(const MarketSimulation&) = delete;
  MarketSimulation& operator=(const MarketSimulation&) = delete;

  // Registers the buyer's purchased view; its base tables are registered
  // on demand.
  Status AddBuyerView(SharingId id, const ViewKey& key);

  // --- Fault domain --------------------------------------------------------
  // Wires the simulation to the provider's cluster and recovery planner;
  // required before scheduling failure/recovery events. The cluster must
  // be the one the recovery planner's context points at.
  void AttachFaultDomain(Cluster* cluster, RecoveryPlanner* recovery);

  // Schedules server `s` to fail (resp. return) at the start of absolute
  // tick `tick` (ticks count from 0 across Run() calls). A tick before
  // ticks_elapsed() would never fire and is rejected (InvalidArgument).
  Status ScheduleServerFailure(int tick, ServerId server);
  Status ScheduleServerRecovery(int tick, ServerId server);

  // Advances `ticks` time units. Per tick each registered base table
  // receives round(update_rate * scale) random inserts; `delete_fraction`
  // of previously inserted tuples are deleted instead. A tick the engine
  // refuses returns its error with none of its updates applied or counted;
  // the next Run() generates that tick afresh.
  Status Run(int ticks, double scale, double delete_fraction = 0.1);

  // Checks every *active* buyer view against a from-scratch recomputation
  // (parked sharings have no view to check).
  Result<bool> VerifyViews() const;

  const DeltaEngine& engine() const { return engine_; }
  // Tuples of each buyer's view (for reporting). -1 if unknown.
  int64_t ViewSize(SharingId id) const;
  uint64_t updates_applied() const { return updates_applied_; }
  int ticks_elapsed() const { return ticks_elapsed_; }

  // --- Degradation reporting ----------------------------------------------
  // Sharings currently parked (waiting for capacity to return).
  size_t parked_sharings() const {
    return recovery_ == nullptr ? 0 : recovery_->num_parked();
  }
  const RecoveryStats& recovery_stats() const { return stats_; }

  // --- Reporting -----------------------------------------------------------
  // Number of completed Run() calls (one "epoch" per call).
  int epoch() const { return epoch_; }
  uint64_t seed() const { return seed_; }

  // Machine-readable record of the run so far: seed, epochs, maintenance
  // work, per-buyer view sizes, recovery tallies, and the current global
  // metrics snapshot. Callers attach the FAIRCOST bill via
  // RunReport::SetCosting before serializing.
  obs::RunReport BuildRunReport() const;

 private:
  struct ServerEvent {
    int tick = 0;
    ServerId server = 0;
    bool up = false;  // false = failure, true = recovery
  };

  Status EnsureBase(TableId table);
  Status ProcessServerEvents();
  Status HandleServerDown(ServerId server);
  Status HandleServerUp(ServerId server);
  // Retries the parked sharings and revives the re-admitted ones' views,
  // all or nothing.
  Status RetryParked(bool force);
  Status ApplyReadmissions(const std::vector<MigratedSharing>& readmitted);
  // The buyer views of `ids`, skipping sharings that have none.
  std::vector<ViewId> BuyerViews(const std::vector<SharingId>& ids) const;

  const Catalog* catalog_;
  DeltaEngine engine_;
  Rng rng_;
  uint64_t seed_ = 0;
  double domain_compression_ = 1.0;
  // A table's live tuples: a pool of tuples and the pool ids of the live
  // ones in arrival order. A delete draws a position in `ids` and erases a
  // 4-byte id there, not a tuple; later inserts reuse the freed pool slot.
  struct LiveTuples {
    std::vector<Tuple> pool;
    std::vector<uint32_t> ids;
    std::vector<uint32_t> free_ids;
  };

  std::map<SharingId, ViewId> buyer_views_;
  std::map<TableId, LiveTuples> live_tuples_;
  uint64_t updates_applied_ = 0;
  int ticks_elapsed_ = 0;
  int epoch_ = 0;

  Cluster* cluster_ = nullptr;             // not owned
  RecoveryPlanner* recovery_ = nullptr;    // not owned
  std::vector<ServerEvent> events_;        // pending, unordered
  RecoveryStats stats_;
};

}  // namespace dsm

#endif  // DSM_MARKET_SIMULATION_H_
