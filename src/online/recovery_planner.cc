#include "online/recovery_planner.h"

#include <algorithm>

#include "common/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dsm {

Result<double> RecoveryPlanner::PlanOnLiveServers(SharingId id,
                                                 const Sharing& sharing) {
  if (DSM_INJECT_FAULT("recovery/replan")) {
    return Status::Internal("injected fault: recovery/replan");
  }
  if (LivenessRulesOut(ctx_, sharing)) {
    DSM_METRIC_COUNTER_ADD("dsm.recovery.ruled_out", 1);
    return Status::CapacityExceeded(
        "a down server rules out every plan; sharing parked");
  }
  DSM_ASSIGN_OR_RETURN(const PlanSpace space,
                       ctx_.enumerator->Enumerate(sharing));
  const GlobalPlan::SpaceEvaluation evals =
      ctx_.global_plan->EvaluateSpace(space);
  const int best = evals.CheapestFeasible();
  if (best < 0) {
    return Status::CapacityExceeded(
        "no plan fits on the live servers; sharing parked");
  }
  DSM_ASSIGN_OR_RETURN(
      const GlobalPlan::SharingRecord* rec,
      ctx_.global_plan->Commit(id, sharing, space, evals,
                               static_cast<size_t>(best), evals.lpc));
  return rec->marginal_cost;
}

Status RecoveryPlanner::Unadmit(const std::vector<MigratedSharing>& batch) {
  for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
    DSM_RETURN_IF_ERROR(ctx_.global_plan->RemoveSharing(it->id));
  }
  return Status::OK();
}

void RecoveryPlanner::Park(SharingId id, Sharing sharing, double cost_before,
                           int64_t now_tick) {
  ParkedSharing parked;
  parked.id = id;
  parked.sharing = std::move(sharing);
  parked.cost_before = cost_before;
  parked.attempts = 0;
  parked.backoff_ticks = kInitialBackoffTicks;
  parked.next_retry_tick = now_tick + parked.backoff_ticks;
  parked_.push_back(std::move(parked));
  DSM_METRIC_COUNTER_ADD("dsm.recovery.parkings", 1);
}

Status RecoveryPlanner::OnServerDown(ServerId server, int64_t now_tick,
                                     RecoveryReport* report) {
  DSM_METRIC_SCOPED_LATENCY_MS("dsm.recovery.server_down_ms");
  DSM_TRACE_SPAN("recovery/server_down");
  GlobalPlan* gp = ctx_.global_plan;
  *report = RecoveryReport{};
  report->server = server;
  report->cost_before = gp->TotalCost();

  // Collect and detach every victim first: migration must re-plan against
  // a global plan that no longer offers the dead server's views for reuse.
  struct Victim {
    SharingId id;
    Sharing sharing;
    double old_marginal;
  };
  std::vector<Victim> victims;
  for (const SharingId id : gp->SharingsTouchingServer(server)) {
    const GlobalPlan::SharingRecord* rec = gp->record(id);
    victims.push_back(Victim{id, rec->sharing, rec->marginal_cost});
  }
  for (const Victim& v : victims) {
    DSM_RETURN_IF_ERROR(gp->RemoveSharing(v.id));
  }

  for (size_t i = 0; i < victims.size(); ++i) {
    Victim& v = victims[i];
    const Result<double> migrated = PlanOnLiveServers(v.id, v.sharing);
    if (migrated.ok()) {
      DSM_METRIC_COUNTER_ADD("dsm.recovery.migrations", 1);
      report->migrated.push_back(
          MigratedSharing{v.id, v.old_marginal, *migrated, true});
      continue;
    }
    if (migrated.status().code() != StatusCode::kCapacityExceeded) {
      // The victims are already out of the global plan: park every one
      // not yet migrated, so none is dropped, then surface the error.
      for (size_t j = i; j < victims.size(); ++j) {
        Park(victims[j].id, std::move(victims[j].sharing),
             victims[j].old_marginal, now_tick);
        report->parked.push_back(victims[j].id);
      }
      report->cost_after = gp->TotalCost();
      return migrated.status();
    }
    Park(v.id, std::move(v.sharing), v.old_marginal, now_tick);
    report->parked.push_back(v.id);
  }

  report->cost_after = gp->TotalCost();
  return Status::OK();
}

Result<std::vector<MigratedSharing>> RecoveryPlanner::RetryParked(
    int64_t now_tick, bool force, const ReadmitFn& readmit) {
  DSM_METRIC_SCOPED_LATENCY_MS("dsm.recovery.retry_ms");
  DSM_TRACE_SPAN("recovery/retry_parked");
  // Outcomes are decided first and applied to parked_ only once the whole
  // batch succeeded, so an error leaves the queue exactly as it was.
  enum class Outcome : uint8_t { kWaiting, kReadmitted, kBackedOff };
  std::vector<Outcome> outcome(parked_.size(), Outcome::kWaiting);
  std::vector<MigratedSharing> readmitted;
  size_t attempts = 0;
  for (size_t i = 0; i < parked_.size(); ++i) {
    const ParkedSharing& p = parked_[i];
    if (!force && now_tick < p.next_retry_tick) continue;
    ++attempts;
    const Result<double> placed = PlanOnLiveServers(p.id, p.sharing);
    if (placed.ok()) {
      outcome[i] = Outcome::kReadmitted;
      readmitted.push_back(
          MigratedSharing{p.id, p.cost_before, *placed, false});
      continue;
    }
    if (placed.status().code() != StatusCode::kCapacityExceeded) {
      DSM_RETURN_IF_ERROR(Unadmit(readmitted));
      return placed.status();
    }
    outcome[i] = Outcome::kBackedOff;
  }
  if (readmit) {
    if (const Status served = readmit(readmitted); !served.ok()) {
      DSM_RETURN_IF_ERROR(Unadmit(readmitted));
      return served;
    }
  }

  DSM_METRIC_COUNTER_ADD("dsm.recovery.retry_attempts", attempts);
  DSM_METRIC_COUNTER_ADD("dsm.recovery.readmissions", readmitted.size());
  size_t kept = 0;
  for (size_t i = 0; i < parked_.size(); ++i) {
    if (outcome[i] == Outcome::kReadmitted) continue;
    ParkedSharing& p = parked_[i];
    if (outcome[i] == Outcome::kBackedOff) {
      ++p.attempts;
      p.backoff_ticks =
          std::min(p.backoff_ticks * 2, kMaxBackoffTicks);
      p.next_retry_tick = now_tick + p.backoff_ticks;
    }
    if (kept != i) parked_[kept] = std::move(p);
    ++kept;
  }
  parked_.erase(parked_.begin() + static_cast<std::ptrdiff_t>(kept),
                parked_.end());
  return readmitted;
}

}  // namespace dsm
