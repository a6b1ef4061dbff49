#include "maintain/delta_engine.h"

#include <algorithm>
#include <atomic>
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

size_t DeltaEngine::NodeKeyHash::operator()(const NodeKey& k) const {
  size_t h = ViewKeyHash()(k.key);
  for (const std::string& column : k.projection) {
    h ^= std::hash<std::string>()(column) + 0x9e3779b97f4a7c15ULL +
         (h << 6) + (h >> 2);
  }
  return h;
}

void DeltaEngine::SetLiveNodes(size_t n) {
  live_nodes_ = n;
  DSM_METRIC_GAUGE_SET("dsm.maintain.view_nodes", static_cast<double>(n));
}

Status DeltaEngine::AddLiveHandle(NodeId id) {
  Node& node = nodes_[id];
  if (node.live_handles == 0) {
    DSM_ASSIGN_OR_RETURN(node.contents,
                         Recompute(node.key, node.projection));
    SetLiveNodes(live_nodes_ + 1);
  }
  ++node.live_handles;
  return Status::OK();
}

void DeltaEngine::DropLiveHandle(NodeId id) {
  Node& node = nodes_[id];
  if (--node.live_handles > 0) return;
  // The machine holding the view is gone; so are its contents.
  node.contents = node.empty;
  SetLiveNodes(live_nodes_ - 1);
}

Result<ViewId> DeltaEngine::RegisterView(const ViewKey& key,
                                         std::vector<std::string> projection) {
  NodeKey node_key{key, std::move(projection)};
  const auto it = node_of_.find(node_key);
  if (it != node_of_.end()) {
    DSM_RETURN_IF_ERROR(AddLiveHandle(it->second));
    handles_.push_back({it->second, true});
    return handles_.size() - 1;
  }
  DSM_ASSIGN_OR_RETURN(Relation initial, Recompute(key, node_key.projection));
  Node node;
  node.key = key;
  node.projection = node_key.projection;
  node.empty = Relation(initial.columns());
  node.contents = std::move(initial);
  node.live_handles = 1;
  for (const TableId t : key.tables.ToVector()) {
    node.join_plans[t] = BuildJoinPlan(key, t);
  }
  const NodeId id = nodes_.size();
  nodes_.push_back(std::move(node));
  node_of_.emplace(std::move(node_key), id);
  SetLiveNodes(live_nodes_ + 1);
  handles_.push_back({id, true});
  return handles_.size() - 1;
}

void DeltaEngine::PrepareOperands(NodeId id, TableId table) {
  const Node& node = nodes_[id];
  for (const JoinStep& step : node.join_plans.at(table)) {
    Operand& op = operands_[step.other][id];
    if (op.filtered == nullptr && !op.use_base) {
      if (HasPredicatesOn(node.key, step.other)) {
        Relation scratch;
        const Relation& filtered = ApplyTablePredicates(
            node.key, step.other, bases_.at(step.other), &scratch);
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

const Relation& DeltaEngine::OperandRelation(NodeId id,
                                             TableId other) const {
  const Operand& op = operands_.at(other).at(id);
  return op.use_base ? bases_.at(other) : *op.filtered;
}

size_t DeltaEngine::num_cached_operands() const {
  size_t n = 0;
  for (const auto& [table, by_node] : operands_) n += by_node.size();
  return n;
}

Relation DeltaEngine::PipelineDelta(NodeId id, TableId table,
                                    const Relation& delta,
                                    uint64_t* work) const {
  const Node& node = nodes_[id];
  Relation delta_scratch;
  const Relation* cur =
      &ApplyTablePredicates(node.key, table, delta, &delta_scratch);
  Relation owned;
  for (const JoinStep& step : node.join_plans.at(table)) {
    const Relation& operand = OperandRelation(id, step.other);
    const Relation::JoinIndex* index = operand.FindIndex(step.key_columns);
    owned = index != nullptr ? NaturalJoin(*cur, operand, *index, work)
                             : NaturalJoin(*cur, operand, work);
    cur = &owned;
  }
  // Project to the node's output columns (bag semantics keep projected
  // deltas exact), then permute into the node's canonical column order.
  Relation result;
  if (cur == &owned) {
    result = std::move(owned);
  } else if (cur == &delta_scratch) {
    result = std::move(delta_scratch);
  } else {
    result = *cur;  // single-table unpredicated view: shares the delta
  }
  if (!node.projection.empty()) {
    result = result.Project(node.projection);
  }
  return result.WithColumnOrder(node.empty.columns());
}

Relation DeltaEngine::ResidualDelta(NodeId id,
                                    const Relation& twin_delta) const {
  // σ_p(A ⋈ B) = σ_p(A) ⋈ B when p names a column of A, and a natural
  // join keeps every column name of its inputs, so filtering the twin's
  // result by column name equals running the predicated pipeline. The
  // skip rule matches Recompute's: predicates on tables outside the view
  // or on out-of-range columns never filter.
  const Node& node = nodes_[id];
  Relation result = twin_delta;  // shares the row store until filtered
  for (const Predicate& pred : node.key.predicates) {
    if (!node.key.tables.Contains(pred.table)) continue;
    const TableDef& def = catalog_->table(pred.table);
    if (pred.column >= def.columns.size()) continue;
    result = result.Filter(def.columns[pred.column].name, pred.op,
                           pred.value);
  }
  return result.WithColumnOrder(node.empty.columns());
}

Status DeltaEngine::PropagateDelta(TableId table, const Relation& delta) {
  DSM_METRIC_COUNTER_ADD("dsm.maintain.updates", 1);
  DSM_METRIC_SCOPED_LATENCY_MS("dsm.maintain.apply_ms");
  DSM_TRACE_SPAN("maintain/apply_update");

  std::vector<NodeId> affected;
  size_t refreshes = 0;  // active views brought up to date
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].live_handles > 0 && nodes_[id].key.tables.Contains(table)) {
      affected.push_back(id);
      refreshes += nodes_[id].live_handles;
    }
  }
  if (affected.empty()) return Status::OK();

  // Sort the affected nodes by (tables, predicates, projection, id): within
  // one table set the unpredicated, unprojected node — the twin — sorts
  // first.
  std::sort(affected.begin(), affected.end(), [this](NodeId a, NodeId b) {
    const Node& na = nodes_[a];
    const Node& nb = nodes_[b];
    if (na.key.tables.mask() != nb.key.tables.mask()) {
      return na.key.tables.mask() < nb.key.tables.mask();
    }
    if (na.key.predicates != nb.key.predicates) {
      return na.key.predicates < nb.key.predicates;
    }
    if (na.projection != nb.projection) return na.projection < nb.projection;
    return a < b;
  });

  // One scan pairs each unprojected predicated node after its table set's
  // twin with that twin, which feeds it by residual filter; the nodes one
  // twin feeds are contiguous in `fed`. Every other node runs a pipeline.
  // Slots, `fed` and Pipeline::slot index `affected`.
  struct Pipeline {
    size_t slot = 0;
    size_t fed_begin = 0;  // [fed_begin, fed_end) indexes `fed`
    size_t fed_end = 0;
  };
  constexpr size_t kNoTwin = static_cast<size_t>(-1);
  std::vector<Pipeline> pipelines;
  std::vector<size_t> fed;
  size_t twin = kNoTwin;  // indexes `pipelines`
  for (size_t k = 0; k < affected.size(); ++k) {
    const Node& node = nodes_[affected[k]];
    if (k > 0 && nodes_[affected[k - 1]].key.tables != node.key.tables) {
      twin = kNoTwin;
    }
    if (node.projection.empty() && node.key.unpredicated()) {
      twin = pipelines.size();
    } else if (node.projection.empty() && twin != kNoTwin) {
      fed.push_back(k);
      pipelines[twin].fed_end = fed.size();
      continue;
    }
    pipelines.push_back({k, fed.size(), fed.size()});
  }
  DSM_METRIC_COUNTER_ADD("dsm.maintain.view_refreshes", refreshes);
  DSM_METRIC_COUNTER_ADD("dsm.maintain.pipeline_runs", pipelines.size());
  DSM_METRIC_COUNTER_ADD("dsm.maintain.residual_feeds", fed.size());
  DSM_METRIC_COUNTER_ADD("dsm.maintain.duplicate_feeds",
                         refreshes - affected.size());

  // Prelude: materialize every operand cache and index the pipelines will
  // probe.
  for (const Pipeline& p : pipelines) PrepareOperands(affected[p.slot], table);

  // Two phases: every node's delta for the round is computed before any is
  // merged, so a pipeline that throws leaves every node of the round
  // untouched. Each pipeline fills its node's delta slot, then the slots of
  // the nodes it feeds by residual filter; empty deltas are dropped at once.
  std::vector<std::optional<Relation>> deltas(affected.size());
  for (const Pipeline& p : pipelines) {
    std::optional<Relation>& out = deltas[p.slot];
    out = PipelineDelta(affected[p.slot], table, delta, &work_);
    if (out->DistinctSize() == 0) {
      out.reset();
      continue;
    }
    for (size_t f = p.fed_begin; f < p.fed_end; ++f) {
      std::optional<Relation>& fed_out = deltas[fed[f]];
      fed_out = ResidualDelta(affected[fed[f]], *out);
      if (fed_out->DistinctSize() == 0) fed_out.reset();
    }
  }

  // Merge each non-empty delta into its node's contents (same schema and
  // order, so the stored row hashes transfer).
  for (size_t k = 0; k < affected.size(); ++k) {
    if (deltas[k].has_value()) {
      nodes_[affected[k]].contents.ApplyAll(*deltas[k]);
    }
  }
  DSM_METRIC_GAUGE_SET("dsm.maintain.join_work",
                       static_cast<double>(work_));
  return Status::OK();
}

void DeltaEngine::MergeDelta(TableId table, const Relation& delta) {
  Relation& base = bases_.at(table);
  base.ApplyAll(delta);  // also patches the base's indexes
  // Patch every cached filtered operand over this table — including those
  // of parked nodes, whose caches must stay consistent with the base for
  // re-admission.
  const auto it = operands_.find(table);
  if (it == operands_.end()) return;
  for (auto& [id, op] : it->second) {
    if (op.filtered == nullptr) continue;
    Relation scratch;
    op.filtered->ApplyAll(
        ApplyTablePredicates(nodes_[id].key, table, delta, &scratch));
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
  if (id >= handles_.size()) {
    return Status::NotFound("unknown view id");
  }
  Handle& handle = handles_[id];
  if (handle.active == active) return Status::OK();
  if (active) {
    DSM_RETURN_IF_ERROR(AddLiveHandle(handle.node));
  } else {
    DropLiveHandle(handle.node);
  }
  handle.active = active;
  return Status::OK();
}

const Relation* DeltaEngine::base(TableId table) const {
  const auto it = bases_.find(table);
  return it == bases_.end() ? nullptr : &it->second;
}

const Relation* DeltaEngine::view(ViewId id) const {
  if (id >= handles_.size()) return nullptr;
  const Node& node = nodes_[handles_[id].node];
  return handles_[id].active ? &node.contents : &node.empty;
}

const ViewKey& DeltaEngine::view_key(ViewId id) const {
  static const ViewKey kUnregistered;
  return id < handles_.size() ? nodes_[handles_[id].node].key
                              : kUnregistered;
}

}  // namespace dsm
