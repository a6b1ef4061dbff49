#include "market/simulation.h"

#include <algorithm>
#include <cmath>

#include "common/fault.h"
#include "obs/metrics.h"

namespace dsm {

namespace {

Tuple RandomTupleCompressed(const Catalog& catalog, TableId table, Rng* rng,
                            double compression) {
  const TableDef& def = catalog.table(table);
  Tuple tuple;
  tuple.reserve(def.columns.size());
  for (const ColumnDef& col : def.columns) {
    const auto lo = static_cast<int64_t>(col.min_value);
    const auto domain = std::max<int64_t>(
        1, static_cast<int64_t>(col.distinct_values * compression));
    tuple.emplace_back(rng->UniformInt(lo, lo + domain - 1));
  }
  return tuple;
}

}  // namespace

Tuple RandomTupleForTable(const Catalog& catalog, TableId table, Rng* rng) {
  return RandomTupleCompressed(catalog, table, rng, 1.0);
}

Status MarketSimulation::EnsureBase(TableId table) {
  if (engine_.base(table) != nullptr) return Status::OK();
  return engine_.RegisterBase(table);
}

Status MarketSimulation::AddBuyerView(SharingId id, const ViewKey& key) {
  if (buyer_views_.count(id) != 0) {
    return Status::AlreadyExists("buyer view already registered");
  }
  for (const TableId t : key.tables.ToVector()) {
    DSM_RETURN_IF_ERROR(EnsureBase(t));
  }
  DSM_ASSIGN_OR_RETURN(const ViewId view, engine_.RegisterView(key));
  buyer_views_[id] = view;
  return Status::OK();
}

void MarketSimulation::AttachFaultDomain(Cluster* cluster,
                                         RecoveryPlanner* recovery) {
  cluster_ = cluster;
  recovery_ = recovery;
}

Status MarketSimulation::ScheduleServerFailure(int tick, ServerId server) {
  if (cluster_ == nullptr || recovery_ == nullptr) {
    return Status::InvalidArgument(
        "attach a fault domain before scheduling failures");
  }
  if (server >= cluster_->num_servers()) {
    return Status::InvalidArgument("no such server");
  }
  if (tick < ticks_elapsed_) {
    return Status::InvalidArgument("tick already elapsed");
  }
  events_.push_back(ServerEvent{tick, server, /*up=*/false});
  return Status::OK();
}

Status MarketSimulation::ScheduleServerRecovery(int tick, ServerId server) {
  if (cluster_ == nullptr || recovery_ == nullptr) {
    return Status::InvalidArgument(
        "attach a fault domain before scheduling recoveries");
  }
  if (server >= cluster_->num_servers()) {
    return Status::InvalidArgument("no such server");
  }
  if (tick < ticks_elapsed_) {
    return Status::InvalidArgument("tick already elapsed");
  }
  events_.push_back(ServerEvent{tick, server, /*up=*/true});
  return Status::OK();
}

std::vector<ViewId> MarketSimulation::BuyerViews(
    const std::vector<SharingId>& ids) const {
  // Sharings without a registered buyer view (planned but not simulated)
  // have no view.
  std::vector<ViewId> views;
  for (const SharingId id : ids) {
    const auto it = buyer_views_.find(id);
    if (it != buyer_views_.end()) views.push_back(it->second);
  }
  return views;
}

Status MarketSimulation::HandleServerDown(ServerId server) {
  DSM_RETURN_IF_ERROR(cluster_->MarkDown(server));
  // A failover that fails partway still reports what it did: the victims
  // migrated before the error, and every victim it parked.
  RecoveryReport report;
  const Status replanned =
      recovery_->OnServerDown(server, ticks_elapsed_, &report);
  ++stats_.failures;
  DSM_METRIC_COUNTER_ADD("dsm.market.failure_events", 1);
  stats_.last_event_tick = ticks_elapsed_;
  for (const MigratedSharing& m : report.migrated) {
    ++stats_.migrated;
    stats_.migration_cost_delta += m.cost_after - m.cost_before;
  }
  stats_.parked += static_cast<int>(report.parked.size());
  DSM_RETURN_IF_ERROR(engine_.SetViewActive(BuyerViews(report.parked), false));
  return replanned;
}

Status MarketSimulation::RetryParked(bool force) {
  // The views are revived inside the retry, so a failed revival leaves
  // the batch parked, its views inactive.
  return recovery_
      ->RetryParked(ticks_elapsed_, force,
                    [this](const std::vector<MigratedSharing>& readmitted) {
                      return ApplyReadmissions(readmitted);
                    })
      .status();
}

Status MarketSimulation::ApplyReadmissions(
    const std::vector<MigratedSharing>& readmitted) {
  std::vector<SharingId> ids;
  for (const MigratedSharing& m : readmitted) ids.push_back(m.id);
  // One call, so each table set's revived views take one fill.
  DSM_RETURN_IF_ERROR(engine_.SetViewActive(BuyerViews(ids), true));
  for (const MigratedSharing& m : readmitted) {
    ++stats_.readmitted;
    stats_.migration_cost_delta += m.cost_after - m.cost_before;
  }
  return Status::OK();
}

Status MarketSimulation::HandleServerUp(ServerId server) {
  DSM_RETURN_IF_ERROR(cluster_->MarkUp(server));
  ++stats_.recoveries;
  DSM_METRIC_COUNTER_ADD("dsm.market.recovery_events", 1);
  stats_.last_event_tick = ticks_elapsed_;
  // Capacity just returned: retry every parked sharing immediately.
  return RetryParked(/*force=*/true);
}

Status MarketSimulation::ProcessServerEvents() {
  if (cluster_ == nullptr || recovery_ == nullptr) return Status::OK();

  for (auto it = events_.begin(); it != events_.end();) {
    if (it->tick != ticks_elapsed_) {
      ++it;
      continue;
    }
    const ServerEvent event = *it;
    it = events_.erase(it);
    DSM_RETURN_IF_ERROR(event.up ? HandleServerUp(event.server)
                                 : HandleServerDown(event.server));
  }

  // Probabilistic chaos, armed by tests/demos: kill a random live server.
  if (DSM_INJECT_FAULT("sim/random-server-failure") &&
      cluster_->num_live_servers() > 0) {
    const std::vector<ServerId> live = cluster_->live_servers();
    const ServerId victim = live[static_cast<size_t>(rng_.UniformInt(
        0, static_cast<int64_t>(live.size()) - 1))];
    DSM_RETURN_IF_ERROR(HandleServerDown(victim));
  }

  // Parked sharings whose backoff elapsed get another chance.
  if (recovery_->num_parked() > 0) {
    DSM_RETURN_IF_ERROR(RetryParked(/*force=*/false));
  }
  return Status::OK();
}

Status MarketSimulation::Run(int ticks, double scale,
                             double delete_fraction) {
  for (int tick = 0; tick < ticks; ++tick) {
    DSM_RETURN_IF_ERROR(ProcessServerEvents());
    // Per-table batch sizes derive from the catalog's update rates: the
    // same statistics the planners' cost model consumed. The whole tick is
    // generated first, then applied through the engine's batched path so
    // every view is refreshed once per table per tick.
    std::vector<TableUpdate> tick_updates;
    // Per update, its edits to the live list in order: the position a
    // delete erased and the id it held, or kAppended and the id an insert
    // took. They are taken back, newest first, if the engine refuses the
    // tick, so the live lists keep matching the bases; the deleted ids
    // are freed only once the tick is applied.
    constexpr size_t kAppended = static_cast<size_t>(-1);
    struct Edit {
      size_t position = 0;
      uint32_t id = 0;
    };
    std::vector<std::vector<Edit>> edits;
    uint64_t tick_tuples = 0;
    for (TableId t = 0; t < catalog_->num_tables(); ++t) {
      if (engine_.base(t) == nullptr) continue;
      const double rate = catalog_->table(t).stats.update_rate;
      const int batch =
          std::max(0, static_cast<int>(std::llround(rate * scale)));
      if (batch == 0) continue;
      TableUpdate update;
      update.table = t;
      LiveTuples& live = live_tuples_[t];
      std::vector<Edit>& log = edits.emplace_back();
      for (int i = 0; i < batch; ++i) {
        if (!live.ids.empty() && rng_.Bernoulli(delete_fraction)) {
          const size_t idx = static_cast<size_t>(rng_.UniformInt(
              0, static_cast<int64_t>(live.ids.size()) - 1));
          const uint32_t id = live.ids[idx];
          update.deletes.push_back(std::move(live.pool[id]));
          live.ids.erase(live.ids.begin() + static_cast<std::ptrdiff_t>(idx));
          log.push_back({idx, id});
        } else {
          Tuple tuple = RandomTupleCompressed(*catalog_, t, &rng_,
                                              domain_compression_);
          uint32_t id;
          if (live.free_ids.empty()) {
            id = static_cast<uint32_t>(live.pool.size());
            live.pool.push_back(tuple);
          } else {
            id = live.free_ids.back();
            live.free_ids.pop_back();
            live.pool[id] = tuple;
          }
          live.ids.push_back(id);
          update.inserts.push_back(std::move(tuple));
          log.push_back({kAppended, id});
        }
      }
      tick_tuples += update.inserts.size() + update.deletes.size();
      tick_updates.push_back(std::move(update));
    }
    if (!tick_updates.empty()) {
      const Status applied = engine_.ApplyUpdates(tick_updates);
      for (size_t u = 0; u < tick_updates.size(); ++u) {
        const TableUpdate& update = tick_updates[u];
        LiveTuples& live = live_tuples_[update.table];
        if (applied.ok()) {
          for (const Edit& e : edits[u]) {
            if (e.position != kAppended) live.free_ids.push_back(e.id);
          }
          continue;
        }
        size_t deletes = update.deletes.size();
        for (auto e = edits[u].rbegin(); e != edits[u].rend(); ++e) {
          if (e->position == kAppended) {
            live.ids.pop_back();
            live.free_ids.push_back(e->id);
          } else {
            live.ids.insert(
                live.ids.begin() + static_cast<std::ptrdiff_t>(e->position),
                e->id);
            live.pool[e->id] = update.deletes[--deletes];
          }
        }
      }
      if (!applied.ok()) return applied;
    }
    updates_applied_ += tick_tuples;
    ++ticks_elapsed_;
    DSM_METRIC_COUNTER_ADD("dsm.market.ticks", 1);
  }
  ++epoch_;
  return Status::OK();
}

obs::RunReport MarketSimulation::BuildRunReport() const {
  obs::RunReport report;
  report.seed = seed_;
  report.epoch = epoch_;
  report.ticks = ticks_elapsed_;
  report.updates_applied = updates_applied_;
  report.maintenance_work = engine_.work();

  report.recovery = stats_;
  report.parked_now = parked_sharings();

  for (const auto& [id, view] : buyer_views_) {
    report.view_sizes.emplace_back(id, engine_.view(view)->TotalSize());
  }

  report.metrics = obs::MetricsRegistry::Global().Snapshot();
  return report;
}

Result<bool> MarketSimulation::VerifyViews() const {
  for (const auto& [id, view] : buyer_views_) {
    if (!engine_.view_active(view)) continue;  // parked: nothing served
    DSM_ASSIGN_OR_RETURN(const Relation expected,
                         engine_.Recompute(engine_.view_key(view)));
    if (!engine_.view(view)->BagEquals(expected)) {
      return false;
    }
  }
  return true;
}

int64_t MarketSimulation::ViewSize(SharingId id) const {
  const auto it = buyer_views_.find(id);
  if (it == buyer_views_.end()) return -1;
  return engine_.view(it->second)->TotalSize();
}

}  // namespace dsm
