#include "maintain/delta_engine.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <numeric>
#include <optional>

#include "maintain/tuple_store.h"
#include "maintain/value_dict.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dsm {
namespace {

std::vector<std::string> TableColumnNames(const Catalog& catalog,
                                          TableId table) {
  std::vector<std::string> names;
  for (const ColumnDef& col : catalog.table(table).columns) {
    names.push_back(col.name);
  }
  return names;
}

// InvalidArgument unless every tuple has one value per column of `base`.
// Ingest encodes tuples into fixed-width rows of the base schema's arity,
// so a short or long tuple must be refused before it touches any state.
Status CheckArity(const Relation& base, const std::vector<Tuple>& inserts,
                  const std::vector<Tuple>& deletes) {
  const size_t arity = base.columns().size();
  for (const auto* tuples : {&inserts, &deletes}) {
    for (const Tuple& t : *tuples) {
      if (t.size() != arity) {
        return Status::InvalidArgument(
            "tuple arity " + std::to_string(t.size()) +
            " does not match the base schema's " + std::to_string(arity) +
            " columns");
      }
    }
  }
  return Status::OK();
}

// Mirrors the compact data plane's global stats into the metrics registry.
// The stats are cumulative process-wide atomics; counters get the delta
// since the last export (monotone guard keeps concurrent engines from
// double-counting), gauges get the current value.
void ExportTupleStoreMetrics() {
#ifndef DSM_DISABLE_TELEMETRY
  const TupleStoreStats& stats = TupleStoreStats::Global();
  static std::atomic<uint64_t> last_probes{0};
  static std::atomic<uint64_t> last_rehashes{0};
  const uint64_t probes = stats.probes.load(std::memory_order_relaxed);
  const uint64_t rehashes = stats.rehashes.load(std::memory_order_relaxed);
  const uint64_t prev_probes =
      last_probes.exchange(probes, std::memory_order_relaxed);
  const uint64_t prev_rehashes =
      last_rehashes.exchange(rehashes, std::memory_order_relaxed);
  if (probes > prev_probes) {
    DSM_METRIC_COUNTER_ADD("dsm.maintain.bag_probes", probes - prev_probes);
  }
  if (rehashes > prev_rehashes) {
    DSM_METRIC_COUNTER_ADD("dsm.maintain.bag_rehashes",
                           rehashes - prev_rehashes);
  }
  DSM_METRIC_GAUGE_SET("dsm.maintain.dict_entries",
                       ValueDict::Global().num_entries());
  DSM_METRIC_GAUGE_SET(
      "dsm.maintain.resident_bytes",
      stats.resident_bytes.load(std::memory_order_relaxed));
#endif  // DSM_DISABLE_TELEMETRY
}

}  // namespace

DeltaEngine::DeltaEngine(const Catalog* catalog, DeltaEngineOptions options)
    : catalog_(catalog), options_(options) {
  if (ResolveThreadCount(options_.pool) > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.pool);
  }
}

Status DeltaEngine::RegisterBase(TableId table) {
  if (table >= catalog_->num_tables()) {
    return Status::InvalidArgument("unknown table id");
  }
  if (bases_.count(table) != 0) {
    return Status::AlreadyExists("base table already registered");
  }
  bases_.emplace(table, Relation(TableColumnNames(*catalog_, table)));
  return Status::OK();
}

bool DeltaEngine::HasPredicatesOn(const ViewKey& key, TableId table) const {
  const TableDef& def = catalog_->table(table);
  for (const Predicate& pred : key.predicates) {
    if (pred.table == table && pred.column < def.columns.size()) return true;
  }
  return false;
}

const Relation& DeltaEngine::ApplyTablePredicates(const ViewKey& key,
                                                  TableId table,
                                                  const Relation& rel,
                                                  Relation* scratch) const {
  const Relation* cur = &rel;
  for (const Predicate& pred : key.predicates) {
    if (pred.table != table) continue;
    const TableDef& def = catalog_->table(table);
    if (pred.column >= def.columns.size()) continue;
    *scratch = cur->Filter(def.columns[pred.column].name, pred.op,
                           pred.value);
    cur = scratch;
  }
  return *cur;
}

Result<Relation> DeltaEngine::Recompute(const ViewKey& key) const {
  DSM_METRIC_COUNTER_ADD("dsm.maintain.recomputes", 1);
  Relation acc;
  bool first = true;
  for (const TableId t : key.tables.ToVector()) {
    const auto it = bases_.find(t);
    if (it == bases_.end()) {
      return Status::NotFound("view references an unregistered base table");
    }
    Relation scratch;
    const Relation& filtered =
        ApplyTablePredicates(key, t, it->second, &scratch);
    if (first) {
      acc = filtered;
      first = false;
    } else {
      acc = NaturalJoin(acc, filtered, nullptr);
    }
  }
  return acc;
}

Result<Relation> DeltaEngine::Recompute(
    const ViewKey& key, const std::vector<std::string>& projection) const {
  DSM_ASSIGN_OR_RETURN(Relation full, Recompute(key));
  if (projection.empty()) return full;
  return full.Project(projection);
}

std::vector<DeltaEngine::JoinStep> DeltaEngine::BuildJoinPlan(
    const ViewKey& key, TableId delta_table) const {
  // Orders the probes by connectivity: each step joins the lowest-id
  // remaining table that shares a column with the schema accumulated so
  // far, so a delta entering mid-chain never takes a cartesian product
  // with an unconnected table (ascending order did exactly that for
  // deltas on a chain's tail, and the blowup dwarfed every other cost).
  // Only if no remaining table connects — a genuinely disconnected view —
  // does the plan fall back to the lowest-id table.
  std::vector<std::string> schema = TableColumnNames(*catalog_, delta_table);
  std::vector<TableId> remaining;
  for (const TableId other : key.tables.ToVector()) {
    if (other != delta_table) remaining.push_back(other);
  }
  std::vector<JoinStep> steps;
  while (!remaining.empty()) {
    size_t pick = 0;
    for (size_t i = 0; i < remaining.size(); ++i) {
      if (!SharedJoinColumns(schema, bases_.at(remaining[i])).empty()) {
        pick = i;
        break;
      }
    }
    const Relation& rel = bases_.at(remaining[pick]);
    JoinStep step;
    step.other = remaining[pick];
    step.key_columns = SharedJoinColumns(schema, rel);
    for (const std::string& col : rel.columns()) {
      if (std::find(schema.begin(), schema.end(), col) == schema.end()) {
        schema.push_back(col);
      }
    }
    steps.push_back(std::move(step));
    remaining.erase(remaining.begin() + static_cast<long>(pick));
  }
  return steps;
}

Result<ViewId> DeltaEngine::RegisterView(const ViewKey& key,
                                         std::vector<std::string> projection) {
  DSM_ASSIGN_OR_RETURN(Relation initial, Recompute(key, projection));
  View view;
  view.key = key;
  view.projection = std::move(projection);
  view.contents = std::move(initial);
  for (const TableId t : key.tables.ToVector()) {
    view.join_plans[t] = BuildJoinPlan(key, t);
  }
  views_.push_back(std::move(view));
  return views_.size() - 1;
}

void DeltaEngine::PrepareOperands(ViewId id, TableId table) {
  const View& view = views_[id];
  for (const JoinStep& step : view.join_plans.at(table)) {
    Operand& op = operands_[step.other][id];
    if (op.filtered == nullptr && !op.use_base) {
      if (HasPredicatesOn(view.key, step.other)) {
        Relation scratch;
        const Relation& filtered = ApplyTablePredicates(
            view.key, step.other, bases_.at(step.other), &scratch);
        (void)filtered;  // predicates exist, so `filtered` aliases scratch
        op.filtered = std::make_unique<Relation>(std::move(scratch));
      } else {
        op.use_base = true;
      }
      DSM_METRIC_COUNTER_ADD("dsm.maintain.operand_cache_builds", 1);
    } else {
      DSM_METRIC_COUNTER_ADD("dsm.maintain.operand_cache_hits", 1);
    }
    Relation& rel = op.use_base ? bases_.at(step.other) : *op.filtered;
    rel.EnsureIndex(step.key_columns);
  }
}

const Relation& DeltaEngine::OperandRelation(ViewId id,
                                             TableId other) const {
  const Operand& op = operands_.at(other).at(id);
  return op.use_base ? bases_.at(other) : *op.filtered;
}

size_t DeltaEngine::num_cached_operands() const {
  size_t n = 0;
  for (const auto& [table, by_view] : operands_) n += by_view.size();
  return n;
}

Relation DeltaEngine::PipelineDelta(ViewId id, TableId table,
                                    const Relation& delta,
                                    uint64_t* work) const {
  const View& view = views_[id];
  Relation delta_scratch;
  const Relation* cur =
      &ApplyTablePredicates(view.key, table, delta, &delta_scratch);
  Relation owned;
  for (const JoinStep& step : view.join_plans.at(table)) {
    const Relation& operand = OperandRelation(id, step.other);
    const Relation::JoinIndex* index = operand.FindIndex(step.key_columns);
    owned = index != nullptr ? NaturalJoin(*cur, operand, *index, work)
                             : NaturalJoin(*cur, operand, work);
    cur = &owned;
  }
  // Project to the view's output columns (bag semantics keep projected
  // deltas exact), then permute into the view's canonical column order.
  Relation result;
  if (cur == &owned) {
    result = std::move(owned);
  } else if (cur == &delta_scratch) {
    result = std::move(delta_scratch);
  } else {
    result = *cur;  // single-table unpredicated view: shares the delta
  }
  if (!view.projection.empty()) {
    result = result.Project(view.projection);
  }
  return result.WithColumnOrder(view.contents.columns());
}

Relation DeltaEngine::ResidualDelta(ViewId id,
                                    const Relation& twin_delta) const {
  // σ_p(A ⋈ B) = σ_p(A) ⋈ B when p names a column of A, and a natural
  // join keeps every column name of its inputs, so filtering the twin's
  // result by column name equals running the predicated pipeline. The
  // skip rule matches Recompute's: predicates on tables outside the view
  // or on out-of-range columns never filter.
  const View& view = views_[id];
  Relation result = twin_delta;  // shares the row store until filtered
  for (const Predicate& pred : view.key.predicates) {
    if (!view.key.tables.Contains(pred.table)) continue;
    const TableDef& def = catalog_->table(pred.table);
    if (pred.column >= def.columns.size()) continue;
    result = result.Filter(def.columns[pred.column].name, pred.op,
                           pred.value);
  }
  return result.WithColumnOrder(view.contents.columns());
}

Status DeltaEngine::PropagateDelta(TableId table, const Relation& delta) {
  DSM_METRIC_COUNTER_ADD("dsm.maintain.updates", 1);
  DSM_METRIC_SCOPED_LATENCY_MS("dsm.maintain.apply_ms");
  DSM_TRACE_SPAN("maintain/apply_update");

  std::vector<ViewId> affected;
  for (ViewId id = 0; id < views_.size(); ++id) {
    if (views_[id].active && views_[id].key.tables.Contains(table)) {
      affected.push_back(id);
    }
  }
  if (affected.empty()) return Status::OK();

  // Sort the affected views by (tables, predicates, projection, id).
  // Equal views then form runs led by their lowest id, and within one
  // table set the unpredicated, unprojected view — the twin — sorts first.
  std::vector<size_t> order(affected.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const View& va = views_[affected[a]];
    const View& vb = views_[affected[b]];
    if (va.key.tables.mask() != vb.key.tables.mask()) {
      return va.key.tables.mask() < vb.key.tables.mask();
    }
    if (va.key.predicates != vb.key.predicates) {
      return va.key.predicates < vb.key.predicates;
    }
    if (va.projection != vb.projection) return va.projection < vb.projection;
    return a < b;  // `affected` ascends by id
  });

  // One scan forms the groups. Duplicates join their run's leader. An
  // unprojected predicated group after its table set's twin is fed by
  // residual filter; the groups one twin feeds are contiguous in `fed`.
  // Every other group runs a pipeline.
  struct Group {
    ViewId leader = 0;
    size_t fed_begin = 0;  // [fed_begin, fed_end) indexes `fed`
    size_t fed_end = 0;
  };
  constexpr size_t kNoTwin = static_cast<size_t>(-1);
  std::vector<Group> groups;
  std::vector<size_t> group_of(affected.size());
  std::vector<size_t> fed;
  std::vector<size_t> pipelines;
  size_t twin = kNoTwin;
  for (size_t k = 0; k < order.size(); ++k) {
    const View& view = views_[affected[order[k]]];
    if (k > 0) {
      const View& prev = views_[affected[order[k - 1]]];
      if (prev.key == view.key && prev.projection == view.projection) {
        group_of[order[k]] = groups.size() - 1;
        continue;
      }
      if (prev.key.tables != view.key.tables) twin = kNoTwin;
    }
    const size_t g = groups.size();
    group_of[order[k]] = g;
    groups.push_back({affected[order[k]], fed.size(), fed.size()});
    if (view.projection.empty() && view.key.unpredicated()) {
      twin = g;
    } else if (view.projection.empty() && twin != kNoTwin) {
      fed.push_back(g);
      groups[twin].fed_end = fed.size();
      continue;
    }
    pipelines.push_back(g);
  }
  DSM_METRIC_COUNTER_ADD("dsm.maintain.view_refreshes", affected.size());
  DSM_METRIC_COUNTER_ADD("dsm.maintain.pipeline_runs", pipelines.size());
  DSM_METRIC_COUNTER_ADD("dsm.maintain.residual_feeds", fed.size());
  DSM_METRIC_COUNTER_ADD("dsm.maintain.duplicate_feeds",
                         affected.size() - groups.size());

  const auto run = [this](size_t n, const std::function<void(size_t)>& fn) {
    if (pool_ != nullptr && n > 1) {
      pool_->ParallelFor(n, fn);
    } else {
      for (size_t i = 0; i < n; ++i) fn(i);
    }
  };

  // Serial prelude: materialize every operand cache and index the
  // pipelines will probe. After this point shared state is read-only until
  // the barrier.
  for (const size_t g : pipelines) PrepareOperands(groups[g].leader, table);

  // Each pipeline fills its group's delta slot, then the slots of the
  // groups it feeds by residual filter. Empty deltas are dropped at once.
  // With a pool, slots are created and freed on its threads only, so the
  // caller's heap never holds the per-round churn.
  std::vector<std::optional<Relation>> group_deltas(groups.size());
  std::vector<uint64_t> task_work(pipelines.size(), 0);
  run(pipelines.size(), [&](size_t k) {
    const Group& group = groups[pipelines[k]];
    std::optional<Relation>& out = group_deltas[pipelines[k]];
    out = PipelineDelta(group.leader, table, delta, &task_work[k]);
    if (out->DistinctSize() == 0) {
      out.reset();
      return;
    }
    for (size_t f = group.fed_begin; f < group.fed_end; ++f) {
      std::optional<Relation>& fed_out = group_deltas[fed[f]];
      fed_out = ResidualDelta(groups[fed[f]].leader, *out);
      if (fed_out->DistinctSize() == 0) fed_out.reset();
    }
  });
  // Deterministic merge: summation in pipeline order, independent of which
  // thread ran which pipeline.
  for (const uint64_t w : task_work) work_ += w;

  // Fan-out: every affected view with a non-empty delta merges it into its
  // own contents (same schema and order, so the stored row hashes
  // transfer). The last reader of a slot frees it.
  std::vector<size_t> targets;
  std::vector<std::atomic<uint32_t>> readers(groups.size());
  for (size_t i = 0; i < affected.size(); ++i) {
    if (!group_deltas[group_of[i]].has_value()) continue;
    targets.push_back(i);
    readers[group_of[i]].fetch_add(1, std::memory_order_relaxed);
  }
  run(targets.size(), [&](size_t k) {
    const size_t g = group_of[targets[k]];
    views_[affected[targets[k]]].contents.ApplyAll(*group_deltas[g]);
    if (readers[g].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      group_deltas[g].reset();
    }
  });
  DSM_METRIC_GAUGE_SET("dsm.maintain.join_work",
                       static_cast<double>(work_));
  return Status::OK();
}

void DeltaEngine::MergeDelta(TableId table, const Relation& delta) {
  Relation& base = bases_.at(table);
  base.ApplyAll(delta);  // also patches the base's indexes
  // Patch every cached filtered operand over this table — including those
  // of inactive views, whose caches must stay consistent with the base for
  // re-admission.
  const auto it = operands_.find(table);
  if (it == operands_.end()) return;
  for (auto& [id, op] : it->second) {
    if (op.filtered == nullptr) continue;
    Relation scratch;
    op.filtered->ApplyAll(
        ApplyTablePredicates(views_[id].key, table, delta, &scratch));
    DSM_METRIC_COUNTER_ADD("dsm.maintain.operand_cache_patches", 1);
  }
}

Status DeltaEngine::ApplyUpdate(TableId table,
                                const std::vector<Tuple>& inserts,
                                const std::vector<Tuple>& deletes) {
  const auto base_it = bases_.find(table);
  if (base_it == bases_.end()) {
    return Status::NotFound("base table not registered");
  }
  DSM_RETURN_IF_ERROR(CheckArity(base_it->second, inserts, deletes));
  DSM_METRIC_COUNTER_ADD("dsm.maintain.delta_tuples",
                         inserts.size() + deletes.size());

  // The signed delta relation ΔT.
  Relation delta(base_it->second.columns());
  for (const Tuple& t : inserts) delta.Apply(t, +1);
  for (const Tuple& t : deletes) delta.Apply(t, -1);

  DSM_RETURN_IF_ERROR(PropagateDelta(table, delta));
  MergeDelta(table, delta);
  ExportTupleStoreMetrics();
  return Status::OK();
}

Status DeltaEngine::ApplyUpdates(std::span<const TableUpdate> updates) {
  for (const TableUpdate& update : updates) {
    const auto base_it = bases_.find(update.table);
    if (base_it == bases_.end()) {
      return Status::NotFound("base table not registered");
    }
    DSM_RETURN_IF_ERROR(
        CheckArity(base_it->second, update.inserts, update.deletes));
  }
  DSM_METRIC_COUNTER_ADD("dsm.maintain.batches", 1);

  // Coalesce per table (ascending), so each view is refreshed once per
  // table regardless of how fragmented the batch is.
  std::map<TableId, Relation> deltas;
  for (const TableUpdate& update : updates) {
    DSM_METRIC_COUNTER_ADD("dsm.maintain.delta_tuples",
                           update.inserts.size() + update.deletes.size());
    auto [it, inserted] = deltas.try_emplace(
        update.table,
        Relation(bases_.at(update.table).columns()));
    if (!inserted) {
      DSM_METRIC_COUNTER_ADD("dsm.maintain.batch_coalesced", 1);
    }
    Relation& delta = it->second;
    for (const Tuple& t : update.inserts) delta.Apply(t, +1);
    for (const Tuple& t : update.deletes) delta.Apply(t, -1);
  }
  for (const auto& [table, delta] : deltas) {
    DSM_RETURN_IF_ERROR(PropagateDelta(table, delta));
    MergeDelta(table, delta);
  }
  ExportTupleStoreMetrics();
  return Status::OK();
}

Status DeltaEngine::SetViewActive(ViewId id, bool active) {
  if (id >= views_.size()) {
    return Status::NotFound("unknown view id");
  }
  View& view = views_[id];
  if (view.active == active) return Status::OK();
  if (!active) {
    // The machine holding the view is gone; so are its contents.
    view.contents = Relation(view.contents.columns());
    view.active = false;
    return Status::OK();
  }
  DSM_ASSIGN_OR_RETURN(view.contents,
                       Recompute(view.key, view.projection));
  view.active = true;
  return Status::OK();
}

const Relation* DeltaEngine::base(TableId table) const {
  const auto it = bases_.find(table);
  return it == bases_.end() ? nullptr : &it->second;
}

const Relation* DeltaEngine::view(ViewId id) const {
  return id < views_.size() ? &views_[id].contents : nullptr;
}

}  // namespace dsm
