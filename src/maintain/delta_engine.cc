#include "maintain/delta_engine.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "common/fault.h"
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

// InvalidArgument when the coalesced `delta` removes more copies of a row
// than `base` holds: base tables stay non-negative. The delta has the
// base's schema, so each row's stored hash finds its base row directly,
// with no dictionary decode.
Status CheckDeletes(const Relation& base, const Relation& delta) {
  const TupleStore& from = delta.store();
  const TupleStore& to = base.store();
  bool beyond = false;
  from.ForEachLive([&](uint32_t r) {
    const int64_t count = from.row_count(r);
    if (count < 0 && to.Count(from.row_slots(r), from.row_hash(r)) < -count) {
      beyond = true;
    }
  });
  if (beyond) {
    return Status::InvalidArgument(
        "delete of a tuple the base table does not hold");
  }
  return Status::OK();
}

// Mirrors the compact data plane's global stats into the metrics registry.
// The stats are cumulative process-wide atomics; counters get the delta
// since the last export (monotone guard keeps concurrent engines from
// double-counting), gauges get the current value.
void ExportTupleStoreMetrics() {
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

Result<DeltaEngine::TableSetJoin*> DeltaEngine::JoinOf(
    const TableSet& tables) {
  const auto it = joins_.find(tables);
  if (it != joins_.end()) return &it->second;
  TableSetJoin join;
  for (const TableId t : tables.ToVector()) {
    const auto base = bases_.find(t);
    if (base == bases_.end()) {
      return Status::NotFound("view references an unregistered base table");
    }
    // Recompute's natural-join order: each table's new columns append.
    for (const std::string& col : base->second.columns()) {
      if (std::find(join.columns.begin(), join.columns.end(), col) ==
          join.columns.end()) {
        join.columns.push_back(col);
      }
    }
  }
  return &joins_.emplace(tables, std::move(join)).first->second;
}

std::vector<DeltaEngine::JoinStep> DeltaEngine::BuildJoinPlan(
    std::vector<std::string> schema, const TableSet& others,
    const std::vector<std::string>& out_columns) const {
  // Orders the probes by connectivity: each step joins the lowest-id
  // remaining table that shares a column with the schema accumulated so
  // far, so a delta entering mid-chain never takes a cartesian product
  // with an unconnected table (ascending order did exactly that for
  // deltas on a chain's tail, and the blowup dwarfed every other cost).
  // Only if no remaining table connects — a genuinely disconnected view —
  // does the plan fall back to the lowest-id table.
  std::vector<TableId> remaining = others.ToVector();
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
    remaining.erase(remaining.begin() + static_cast<long>(pick));
    step.shape = PrepareJoin(schema, rel.columns(),
                             remaining.empty() ? &out_columns : nullptr);
    schema = step.shape.out_columns;
    steps.push_back(std::move(step));
  }
  return steps;
}

void DeltaEngine::SetLiveNodes(size_t n) {
  live_nodes_ = n;
  DSM_METRIC_GAUGE_SET("dsm.maintain.view_nodes", static_cast<double>(n));
}

Result<DeltaEngine::Fill> DeltaEngine::FillNodes(
    const TableSet& tables, TableSetJoin* join,
    std::span<const NodeId> targets) {
  DSM_TRACE_SPAN("maintain/fill");
  if (DSM_INJECT_FAULT("maintain/fill")) {
    return Status::Internal("injected fault in a view fill");
  }
  // The source: a live node over the set with no filters holds ⋈ set.
  Fill fill;
  const Relation* whole = nullptr;
  for (const NodeId id : join->nodes) {
    const Node& node = nodes_[id];
    if (node.live_handles > 0 && node.filters.empty()) {
      whole = &node.contents;
      break;
    }
  }
  Relation joined;
  if (whole == nullptr) {
    // Else the lowest table's base, joined with the set's other bases as
    // a delta of that table would be.
    const TableId lowest = tables.ToVector().front();
    uint64_t work = 0;  // a fill's probes are not maintenance work
    joined = JoinDelta(tables, join, TableSet::Of(lowest), bases_.at(lowest),
                       &work);
    whole = &joined;
    fill.joined = true;
  }
  const TupleStore& rows = whole->store();
  fill.contents.reserve(targets.size());
  for (const NodeId id : targets) {
    const std::vector<RowFilter>& filters = nodes_[id].filters;
    if (filters.empty()) {
      fill.contents.push_back(*whole);
      fill.rows += rows.live_rows();
    } else {
      fill.rows += RouteRows(rows, filters,
                             &fill.contents.emplace_back(join->columns));
    }
  }
  return fill;
}

Status DeltaEngine::AddLiveHandles(std::span<const NodeId> ids) {
  // The nodes coming to life, each once, grouped by table set in mask
  // order and by id within a set.
  std::vector<NodeId> dead;
  for (const NodeId id : ids) {
    if (nodes_[id].live_handles == 0) dead.push_back(id);
  }
  std::sort(dead.begin(), dead.end());
  dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
  std::map<TableSet, std::vector<NodeId>> by_set;
  for (const NodeId id : dead) by_set[nodes_[id].key.tables].push_back(id);

  std::vector<Fill> fills;
  fills.reserve(by_set.size());
  for (const auto& [tables, group] : by_set) {
    DSM_ASSIGN_OR_RETURN(Fill fill,
                         FillNodes(tables, &joins_.at(tables), group));
    fills.push_back(std::move(fill));
  }
  // Every fill succeeded; nothing has changed until here.
  auto fill = fills.begin();
  for (const auto& [tables, group] : by_set) {
    for (size_t k = 0; k < group.size(); ++k) {
      nodes_[group[k]].contents = std::move(fill->contents[k]);
    }
    DSM_METRIC_COUNTER_ADD("dsm.maintain.recomputes", group.size());
    DSM_METRIC_COUNTER_ADD("dsm.maintain.fill_joins", fill->joined ? 1 : 0);
    DSM_METRIC_COUNTER_ADD("dsm.maintain.fill_rows", fill->rows);
    ++fill;
  }
  for (const NodeId id : ids) ++nodes_[id].live_handles;
  if (!dead.empty()) SetLiveNodes(live_nodes_ + dead.size());
  return Status::OK();
}

void DeltaEngine::DropLiveHandle(NodeId id) {
  Node& node = nodes_[id];
  if (--node.live_handles > 0) return;
  // The machine holding the view is gone; so are its contents.
  node.contents = node.empty;
  SetLiveNodes(live_nodes_ - 1);
}

Result<ViewId> DeltaEngine::RegisterView(const ViewKey& key) {
  auto it = node_of_.find(key);
  if (it == node_of_.end()) {
    // A new key's node starts dead and comes to life as a parked one does.
    DSM_ASSIGN_OR_RETURN(TableSetJoin* join, JoinOf(key.tables));
    Node node;
    node.key = key;
    // Recompute's skip rule: predicates on tables outside the view or on
    // out-of-range columns never filter. A predicate names its column by
    // name, and a natural join keeps every input column name, so its
    // position in the set's columns is the one it filters.
    for (const Predicate& pred : key.predicates) {
      if (!key.tables.Contains(pred.table)) continue;
      const TableDef& def = catalog_->table(pred.table);
      if (pred.column >= def.columns.size()) continue;
      const auto at = std::find(join->columns.begin(), join->columns.end(),
                                def.columns[pred.column].name);
      node.filters.push_back(
          {static_cast<size_t>(at - join->columns.begin()), pred.op,
           pred.value});
    }
    node.empty = Relation(join->columns);
    node.contents = node.empty;
    it = node_of_.emplace(key, nodes_.size()).first;
    join->nodes.push_back(nodes_.size());
    nodes_.push_back(std::move(node));
  }
  DSM_RETURN_IF_ERROR(AddLiveHandles(std::span(&it->second, 1)));
  handles_.push_back({it->second, true});
  return handles_.size() - 1;
}

Relation DeltaEngine::JoinDelta(const TableSet& tables, TableSetJoin* join,
                                const TableSet& source,
                                const Relation& source_delta,
                                uint64_t* work) {
  if (source_delta.DistinctSize() == 0) return Relation(join->columns);
  auto plan = join->plans.find(source);
  if (plan == join->plans.end()) {
    plan = join->plans
               .emplace(source, BuildJoinPlan(source_delta.columns(),
                                              tables.Minus(source),
                                              join->columns))
               .first;
  }
  // No steps only for a single-table set, whose columns are its base's.
  const std::vector<JoinStep>& steps = plan->second;
  if (steps.empty()) return source_delta;
  const Relation* cur = &source_delta;
  Relation owned;
  for (size_t i = 0; i < steps.size(); ++i) {
    Relation& base = bases_.at(steps[i].other);
    owned = NaturalJoin(*cur, base, steps[i].shape,
                        *base.EnsureIndex(steps[i].key_columns), work);
    cur = &owned;
  }
  return owned;
}

Status DeltaEngine::JoinRound(TableId table, const Relation& delta,
                              Round* round) {
  DSM_TRACE_SPAN("maintain/apply_update");
  // Groups: the table sets containing `table` that hold a live node, in
  // mask order (joins_ is ordered by set), so a sub-join's group comes
  // before its supersets'. Sources: the join deltas computed so far in
  // the round, each with its table set, starting from the updated table's
  // own delta. Every source contains `table`. A group takes the largest
  // source its table set contains (the first visited on a tie), so
  // Δ(⋈ T) = Δ(⋈ S) ⋈ (⋈ T∖S).
  std::vector<TableSet> source_sets = {TableSet::Of(table)};
  for (auto& [tables, join] : joins_) {
    if (!tables.Contains(table)) continue;
    const size_t begin = round->nodes.size();
    for (const NodeId id : join.nodes) {
      const Node& node = nodes_[id];
      if (node.live_handles == 0) continue;
      round->nodes.push_back(id);
      round->refreshes += node.live_handles;
      if (!node.key.unpredicated()) ++round->predicated;
    }
    if (round->nodes.size() == begin) continue;
    if (DSM_INJECT_FAULT("maintain/join")) {
      return Status::Internal("injected fault in a table-set join");
    }
    size_t from = 0;
    for (size_t s = 1; s < source_sets.size(); ++s) {
      if (tables.ContainsAll(source_sets[s]) &&
          source_sets[s].size() > source_sets[from].size()) {
        from = s;
      }
    }
    if (from != 0) ++round->subjoin_feeds;
    Relation joined =
        JoinDelta(tables, &join, source_sets[from],
                  from == 0 ? delta : round->groups[from - 1].second,
                  &round->work);
    round->groups.emplace_back(round->nodes.size(), std::move(joined));
    source_sets.push_back(tables);
  }
  return Status::OK();
}

void DeltaEngine::MergeRound(const Round& round) {
  DSM_TRACE_SPAN("maintain/apply_update");
  // Route each group's join delta into its nodes. The delta is in the
  // set's column order, every node's over the set, so a row merges with
  // its stored hash: an unpredicated node takes the delta whole, and a
  // predicated one tests each row against its resolved predicates.
  uint64_t routed = 0;  // rows tested against a node's predicates
  uint64_t merged = 0;  // rows merged into node contents
  size_t begin = 0;
  for (const auto& [end, joined] : round.groups) {
    const TupleStore& rows = joined.store();
    for (size_t k = begin; k < end && rows.live_rows() != 0; ++k) {
      Node& node = nodes_[round.nodes[k]];
      if (node.filters.empty()) {
        node.contents.ApplyAll(joined);
        merged += rows.live_rows();
        continue;
      }
      assert(node.contents.columns() == joined.columns() &&
             "a node's schema is its table set's join order");
      routed += rows.live_rows();
      merged += RouteRows(rows, node.filters, &node.contents);
    }
    begin = end;
  }
  work_ += round.work;
  DSM_METRIC_COUNTER_ADD("dsm.maintain.updates", 1);
  DSM_METRIC_COUNTER_ADD("dsm.maintain.view_refreshes", round.refreshes);
  DSM_METRIC_COUNTER_ADD("dsm.maintain.pipeline_runs", round.groups.size());
  DSM_METRIC_COUNTER_ADD("dsm.maintain.subjoin_feeds", round.subjoin_feeds);
  DSM_METRIC_COUNTER_ADD("dsm.maintain.residual_feeds", round.predicated);
  DSM_METRIC_COUNTER_ADD("dsm.maintain.duplicate_feeds",
                         round.refreshes - round.nodes.size());
  DSM_METRIC_COUNTER_ADD("dsm.maintain.routed_rows", routed);
  DSM_METRIC_COUNTER_ADD("dsm.maintain.merged_rows", merged);
}

uint64_t DeltaEngine::RouteRows(const TupleStore& rows,
                               const std::vector<RowFilter>& filters,
                               Relation* into) {
  // The rows every filter keeps, then one batched merge of them.
  selected_.clear();
  rows.ForEachLive([&](uint32_t r) {
    const Slot* slots = rows.row_slots(r);
    for (const RowFilter& f : filters) {
      if (!SlotSatisfies(slots[f.position], f.op, f.value)) return;
    }
    selected_.push_back(r);
  });
  into->ApplyRows(rows, selected_);
  return selected_.size();
}

Status DeltaEngine::ApplyUpdate(TableId table,
                                const std::vector<Tuple>& inserts,
                                const std::vector<Tuple>& deletes) {
  const TableUpdate update{table, inserts, deletes};
  return ApplyUpdates(std::span<const TableUpdate>(&update, 1));
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

  // Coalesce per table (ascending), so each view is refreshed once per
  // table regardless of how fragmented the batch is.
  std::map<TableId, Relation> deltas;
  size_t delta_tuples = 0;
  size_t coalesced = 0;
  for (const TableUpdate& update : updates) {
    delta_tuples += update.inserts.size() + update.deletes.size();
    auto [it, inserted] = deltas.try_emplace(
        update.table,
        Relation(bases_.at(update.table).columns()));
    if (!inserted) ++coalesced;
    Relation& delta = it->second;
    for (const Tuple& t : update.inserts) delta.Apply(t, +1);
    for (const Tuple& t : update.deletes) delta.Apply(t, -1);
  }
  for (const auto& [table, delta] : deltas) {
    DSM_RETURN_IF_ERROR(CheckDeletes(bases_.at(table), delta));
  }
  DSM_METRIC_COUNTER_ADD("dsm.maintain.batches", 1);
  DSM_METRIC_COUNTER_ADD("dsm.maintain.delta_tuples", delta_tuples);
  if (coalesced > 0) {
    DSM_METRIC_COUNTER_ADD("dsm.maintain.batch_coalesced", coalesced);
  }

  {
    DSM_METRIC_SCOPED_LATENCY_MS("dsm.maintain.apply_ms");
    // Phase 1, table by table: the table's join deltas read the bases with
    // every earlier table's delta merged, as a sequence of single-table
    // updates would; then the table's base merge (which also patches the
    // base's indexes). A failed join takes back the base merges made so
    // far, newest first.
    std::vector<Round> rounds;
    rounds.reserve(deltas.size());
    for (auto it = deltas.begin(); it != deltas.end(); ++it) {
      const Status joined = JoinRound(it->first, it->second,
                                      &rounds.emplace_back());
      if (!joined.ok()) {
        while (it != deltas.begin()) {
          --it;
          bases_.at(it->first).ApplyAll(it->second, -1);
        }
        return joined;
      }
      bases_.at(it->first).ApplyAll(it->second);
    }
    // Phase 2: no join reads a view, so every view merge waits for the
    // whole batch to have joined.
    for (const Round& round : rounds) MergeRound(round);
    DSM_METRIC_GAUGE_SET("dsm.maintain.join_work",
                         static_cast<double>(work_));
  }
  ExportTupleStoreMetrics();
  return Status::OK();
}

Status DeltaEngine::SetViewActive(std::span<const ViewId> ids,
                                  bool active) {
  for (const ViewId id : ids) {
    if (id >= handles_.size()) return Status::NotFound("unknown view id");
  }
  // The handles that flip, each once.
  std::vector<ViewId> flips;
  for (const ViewId id : ids) {
    if (handles_[id].active != active) flips.push_back(id);
  }
  std::sort(flips.begin(), flips.end());
  flips.erase(std::unique(flips.begin(), flips.end()), flips.end());
  if (active) {
    std::vector<NodeId> nodes;
    nodes.reserve(flips.size());
    for (const ViewId id : flips) nodes.push_back(handles_[id].node);
    DSM_RETURN_IF_ERROR(AddLiveHandles(nodes));
  } else {
    for (const ViewId id : flips) DropLiveHandle(handles_[id].node);
  }
  for (const ViewId id : flips) handles_[id].active = active;
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
