// DeltaEngine: an executable incremental view maintenance substrate.
//
// The paper's evaluation costs plans analytically, but a real data market
// must actually keep purchased views fresh. The engine maintains
// materialized views σ_Q(⋈ T_1..T_k) under base-table inserts and deletes
// using the counting algorithm: a delta to table t is filtered, joined
// against the other (current) base tables, and the resulting signed delta
// is merged into the view — the apply-updates / copy / merge / join
// pipeline of the paper's Figure 2, collapsed onto one machine. It also
// meters the work performed, providing a measured counterpart to the
// DefaultCostModel's CPU estimates. Every relation it keeps — bases,
// deltas, operand caches, views — is a compact columnar Relation
// (DESIGN.md §12); DeltaEngine::Recompute is the from-scratch oracle the
// incremental path is tested against.
//
// Three amortizations make maintenance scale with the sharing population
// (DESIGN.md §10, §13):
//  * Shared propagation. Each update round runs one join pipeline per
//    *distinct* view, not one per view. Active views with equal ViewKey
//    and projection share their lowest-id member's delta; a predicated
//    view whose unpredicated twin (same tables, no predicates, both
//    unprojected) is also affected takes the twin's delta through a
//    residual filter (σ commutes with the natural join, so this is exact
//    under bag semantics). The grouping is rebuilt from the active views
//    on every round, so registration, SetViewActive and per-view contents
//    keep their one-view-at-a-time semantics.
//  * Operand caching. For every (base table, pipeline-running view) pair
//    the engine keeps the filtered join operand — σ_view(T) — as a
//    persistent relation with a prebuilt equi-join index, incrementally
//    patched by each delta instead of being re-filtered and re-hashed from
//    scratch per update. Views without predicates on a table share the
//    base relation (and its index) directly; no copy is made.
//  * Parallel fan-out. Pipelines, and then the per-view merges of their
//    deltas, run on a ThreadPool (DeltaEngineOptions::pool, honoring
//    DSM_THREADS). Tasks read shared state (bases, operand caches) that is
//    frozen during the fan-out and write only their own slot or view;
//    join-work counts accumulate per task and merge after the barrier, so
//    results and meters are identical for every pool size.

#ifndef DSM_MAINTAIN_DELTA_ENGINE_H_
#define DSM_MAINTAIN_DELTA_ENGINE_H_

#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "expr/view_key.h"
#include "maintain/relation.h"

namespace dsm {

using ViewId = size_t;

// One base table's batch of a multi-table update round.
struct TableUpdate {
  TableId table = 0;
  std::vector<Tuple> inserts;
  std::vector<Tuple> deletes;
};

struct DeltaEngineOptions {
  // Sizing for the fan-out pool. The default resolves through
  // DSM_THREADS; num_threads = 1 forces fully serial maintenance.
  ThreadPoolOptions pool;
};

class DeltaEngine {
 public:
  explicit DeltaEngine(const Catalog* catalog,
                       DeltaEngineOptions options = {});

  DeltaEngine(const DeltaEngine&) = delete;
  DeltaEngine& operator=(const DeltaEngine&) = delete;

  // Creates an empty base relation with the table's catalog schema.
  Status RegisterBase(TableId table);

  // Registers a view to maintain; its content is computed from the current
  // base tables and kept incrementally fresh afterwards. The optional
  // `projection` (column names) restricts the view to those columns, with
  // bag semantics — the counting algorithm keeps projected views correct
  // under deletions. An empty projection keeps every column.
  Result<ViewId> RegisterView(const ViewKey& key,
                              std::vector<std::string> projection = {});

  // Applies inserts/deletes to base `table`: all registered views over the
  // table are brought up to date, then the base relation is updated. Every
  // tuple must have the base schema's arity; otherwise InvalidArgument is
  // returned and no state changes.
  Status ApplyUpdate(TableId table, const std::vector<Tuple>& inserts,
                     const std::vector<Tuple>& deletes);

  // Batched entry point: coalesces same-table deltas, then propagates one
  // combined delta per table in ascending table order. Equivalent to the
  // corresponding sequence of ApplyUpdate calls (deltas to one table
  // commute through filters and joins), but each view is refreshed once
  // per table instead of once per batch entry. Validates every table and
  // every tuple's arity before touching any state.
  Status ApplyUpdates(std::span<const TableUpdate> updates);

  // Degraded mode: an inactive view is not maintained (its contents are
  // dropped — the hosting machine is gone). Reactivating recomputes the
  // view from the current base tables, the provider's recovery story for
  // a sharing re-admitted after being parked.
  Status SetViewActive(ViewId id, bool active);
  bool view_active(ViewId id) const {
    return id < views_.size() && views_[id].active;
  }

  // nullptr when not registered.
  const Relation* base(TableId table) const;
  const Relation* view(ViewId id) const;
  const ViewKey& view_key(ViewId id) const { return views_[id].key; }
  size_t num_views() const { return views_.size(); }

  // From-scratch evaluation of `key` over the current base tables (the
  // oracle the incremental path is tested against).
  Result<Relation> Recompute(const ViewKey& key) const;
  Result<Relation> Recompute(const ViewKey& key,
                             const std::vector<std::string>& projection)
      const;

  // Tuple-pairs probed by joins so far (measured maintenance work). Only
  // pipeline-running views probe: duplicates and residual-fed views add
  // nothing. The value is determined by the update stream and the active
  // view population, and is identical for every pool size.
  uint64_t work() const { return work_; }

  const DeltaEngineOptions& options() const { return options_; }
  // Materialized (table, view) operand caches built so far.
  size_t num_cached_operands() const;

 private:
  // One probe step of a view's delta-propagation join pipeline.
  struct JoinStep {
    TableId other = 0;
    // Shared columns between the accumulated join schema and `other`, in
    // `other`-schema order — the key the operand's index is built on.
    std::vector<std::string> key_columns;
  };

  struct View {
    ViewKey key;
    std::vector<std::string> projection;  // empty = all columns
    Relation contents;
    bool active = true;
    // Per updated table: the other tables in join order with the index
    // key for each probe. Fixed at registration (schemas are static).
    std::map<TableId, std::vector<JoinStep>> join_plans;
  };

  // Cached filtered operand for one (table, view) pair. When the view has
  // no (applicable) predicates on the table, the shared base relation is
  // used directly instead of a copy.
  struct Operand {
    std::unique_ptr<Relation> filtered;  // null when use_base
    bool use_base = false;
  };

  // Returns `rel` filtered by the key's predicates that apply to `table`;
  // when none apply the input reference is returned and `scratch` is left
  // untouched (no copy).
  const Relation& ApplyTablePredicates(const ViewKey& key, TableId table,
                                       const Relation& rel,
                                       Relation* scratch) const;
  bool HasPredicatesOn(const ViewKey& key, TableId table) const;

  std::vector<JoinStep> BuildJoinPlan(const ViewKey& key,
                                      TableId delta_table) const;

  // Serial prelude to a fan-out: materializes the operand caches and
  // indexes a pipeline-running view will probe, so the parallel phase only
  // reads shared state.
  void PrepareOperands(ViewId id, TableId table);
  const Relation& OperandRelation(ViewId id, TableId other) const;

  // Joins the (filtered) delta through the view's pipeline and returns the
  // view's signed delta, projected and in the view's column order. Adds
  // the join work performed to `work`. Thread-safe: reads frozen shared
  // state only.
  Relation PipelineDelta(ViewId id, TableId table, const Relation& delta,
                         uint64_t* work) const;
  // View `id`'s delta derived from `twin_delta`, the delta of the
  // unpredicated view on the same tables: filtered by the view's
  // predicates, by column name, skipping those Recompute would skip.
  Relation ResidualDelta(ViewId id, const Relation& twin_delta) const;

  // Refreshes every active view over `table` (fanning out when a pool is
  // available), without merging the delta into the base.
  Status PropagateDelta(TableId table, const Relation& delta);
  // Merges the delta into the base relation and patches every cached
  // filtered operand over `table` (active or not — parked views' caches
  // must stay fresh for re-admission).
  void MergeDelta(TableId table, const Relation& delta);

  const Catalog* catalog_;
  DeltaEngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // null when maintenance is serial
  std::map<TableId, Relation> bases_;
  std::vector<View> views_;
  // Operand caches by base table, then by the view that probes them.
  std::map<TableId, std::map<ViewId, Operand>> operands_;
  uint64_t work_ = 0;
};

}  // namespace dsm

#endif  // DSM_MAINTAIN_DELTA_ENGINE_H_
