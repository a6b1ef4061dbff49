// RecoveryPlanner: degraded-mode replanning after server loss.
//
// The Replanner (Section 7's future-work item) improves a healthy global
// plan; this class repairs a wounded one. When a server goes down, every
// view materialized on it is lost, so each sharing whose plan closure
// touches the dead machine must be re-planned: the recovery planner
// removes the victims, then re-runs Algorithm 2 for each one restricted to
// live servers: it dry-runs the sharing's whole plan space at once
// (GlobalPlan::EvaluateSpace; plans placing any work on a down server are
// infeasible) and commits the cheapest feasible plan
// (SpaceEvaluation::CheapestFeasible) from that same evaluation
// (GlobalPlan::Commit), so the chosen plan is not priced or probed again.
//
// Sharings that no longer fit anywhere — destination dead, a member
// table's home machine dead, or live capacity exhausted — are *parked*
// with kCapacityExceeded rather than dropped: they wait in a retry queue
// with bounded exponential backoff (in simulation ticks) and are
// re-admitted automatically once capacity returns. Every migration reports
// the marginal-cost delta so FAIRCOST can re-price the surviving sharings.
//
// The first two cases need no dry run. Before enumerating, replanning asks
// GlobalPlan::LivenessRulesOut whether a down server already makes every
// plan infeasible (dead destination, or a dead base-table home that no
// live view covers); if so the sharing parks, or stays parked, at once.
// The answer is exact, so decisions match the full path; it is skipped
// for stateful cost models and for sharings the enumerator would reject.
//
// A planning error other than kCapacityExceeded (e.g. the injected
// "recovery/replan" fault) never loses a sharing: OnServerDown parks every
// victim it has not migrated yet, and RetryParked undoes the batch, so
// every sharing stays in exactly one of the global plan or the queue. A
// caller that serves re-admitted sharings (revives their views) does so
// inside RetryParked, so a failure to serve undoes the batch as well.

#ifndef DSM_ONLINE_RECOVERY_PLANNER_H_
#define DSM_ONLINE_RECOVERY_PLANNER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "online/planner.h"

namespace dsm {

// One sharing moved to a new plan on live servers.
struct MigratedSharing {
  SharingId id = 0;
  double cost_before = 0.0;  // marginal cost under the old plan
  double cost_after = 0.0;   // marginal cost under the new plan
  // False when the sharing was re-admitted from the parked queue (there
  // was no live plan to compare against).
  bool was_active = true;
};

// A sharing the provider currently cannot serve.
struct ParkedSharing {
  SharingId id = 0;
  Sharing sharing;
  double cost_before = 0.0;  // marginal cost when it was last active
  int attempts = 0;          // failed re-admission attempts so far
  int64_t backoff_ticks = 0;
  int64_t next_retry_tick = 0;
};

struct RecoveryReport {
  ServerId server = 0;       // the machine that was lost
  double cost_before = 0.0;  // global plan cost including the dead views
  double cost_after = 0.0;
  std::vector<MigratedSharing> migrated;
  std::vector<SharingId> parked;  // newly parked sharings
};

class RecoveryPlanner {
 public:
  // Backoff before the first retry of a parked sharing, in ticks; it
  // doubles per failed retry up to kMaxBackoffTicks.
  static constexpr int64_t kInitialBackoffTicks = 1;
  static constexpr int64_t kMaxBackoffTicks = 64;

  explicit RecoveryPlanner(PlannerContext context) : ctx_(context) {}

  RecoveryPlanner(const RecoveryPlanner&) = delete;
  RecoveryPlanner& operator=(const RecoveryPlanner&) = delete;

  // Handles the loss of `server` (the caller has already MarkDown()ed it
  // on the cluster): removes every affected sharing from the global plan,
  // migrates the recoverable ones to live servers, parks the rest.
  // `now_tick` anchors the parked sharings' retry backoff. On a planning
  // error the victims not yet migrated are parked and the error returned;
  // `report` then lists the migrations made before it and every victim
  // parked, those the error parked included.
  Status OnServerDown(ServerId server, int64_t now_tick,
                      RecoveryReport* report);
  Result<RecoveryReport> OnServerDown(ServerId server, int64_t now_tick) {
    RecoveryReport report;
    DSM_RETURN_IF_ERROR(OnServerDown(server, now_tick, &report));
    return report;
  }

  // Attempts to re-admit parked sharings. Without `force`, only sharings
  // whose backoff has elapsed at `now_tick` are tried; with `force` (e.g.
  // right after a server returned) every parked sharing is tried. Returns
  // the sharings that were re-admitted; the rest back off further.
  // `readmit`, when given, is called with the batch once every sharing of
  // it is planned and before the queue changes, to serve them.
  // All-or-nothing: on a planning error, or an error from `readmit`, the
  // sharings re-admitted by this call are removed again, the queue is left
  // exactly as it was, and the error is returned.
  using ReadmitFn =
      std::function<Status(const std::vector<MigratedSharing>&)>;
  Result<std::vector<MigratedSharing>> RetryParked(
      int64_t now_tick, bool force = false, const ReadmitFn& readmit = {});

  const std::vector<ParkedSharing>& parked() const { return parked_; }
  size_t num_parked() const { return parked_.size(); }

  const PlannerContext& context() const { return ctx_; }

 private:
  // Algorithm 2 restricted to live servers: cheapest feasible plan for
  // `sharing`, committed under `id`. kCapacityExceeded when nothing fits.
  Result<double> PlanOnLiveServers(SharingId id, const Sharing& sharing);

  // Removes a batch of re-admitted sharings from the global plan again.
  Status Unadmit(const std::vector<MigratedSharing>& batch);

  // Queues a sharing that lost its plan, with the initial backoff.
  void Park(SharingId id, Sharing sharing, double cost_before,
            int64_t now_tick);

  PlannerContext ctx_;
  std::vector<ParkedSharing> parked_;
};

}  // namespace dsm

#endif  // DSM_ONLINE_RECOVERY_PLANNER_H_
