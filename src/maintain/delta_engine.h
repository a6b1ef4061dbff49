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
// Views are held as nodes and handles (DESIGN.md §13). A *node* is one
// distinct (ViewKey, projection): it owns the materialized contents, the
// join plans and the operand caches. A *handle* is what RegisterView
// returns as a ViewId: a node index and an active flag. Any number of
// handles (one per buyer sharing) can hold one node; the node is live
// while at least one of them is active.
//
// Two amortizations make maintenance scale with the sharing population
// (DESIGN.md §10, §13):
//  * Shared propagation. Each update round computes one delta and does
//    one merge per affected *node*, however many handles hold it. A
//    predicated node whose unpredicated twin (same tables, no predicates,
//    both unprojected) is also affected takes the twin's delta through a
//    residual filter (σ commutes with the natural join, so this is exact
//    under bag semantics); every other node runs its own join pipeline.
//    The twin pairing is rebuilt from the live nodes on every round.
//  * Operand caching. For every (base table, pipeline-running node) pair
//    the engine keeps the filtered join operand — σ_view(T) — as a
//    persistent relation with a prebuilt equi-join index, incrementally
//    patched by each delta instead of being re-filtered and re-hashed from
//    scratch per update. Nodes without predicates on a table share the
//    base relation (and its index) directly; no copy is made.
//
// Maintenance is single-threaded and the engine starts no threads: each
// round computes every affected node's delta, then merges them. A worker
// pool over the nodes measured slower than this serial path once shared
// propagation left too little work per round (DESIGN.md §10).

#ifndef DSM_MAINTAIN_DELTA_ENGINE_H_
#define DSM_MAINTAIN_DELTA_ENGINE_H_

#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
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

class DeltaEngine {
 public:
  explicit DeltaEngine(const Catalog* catalog) : catalog_(catalog) {}

  DeltaEngine(const DeltaEngine&) = delete;
  DeltaEngine& operator=(const DeltaEngine&) = delete;

  // Creates an empty base relation with the table's catalog schema.
  Status RegisterBase(TableId table);

  // Registers a view to maintain; its content is computed from the current
  // base tables and kept incrementally fresh afterwards. The optional
  // `projection` (column names) restricts the view to those columns, with
  // bag semantics — the counting algorithm keeps projected views correct
  // under deletions. An empty projection keeps every column. A view equal
  // in key and projection to one already live attaches to its node: no
  // recompute, no second copy of the contents.
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

  // Degraded mode: an inactive view is not maintained and reads as empty
  // (the hosting machine is gone). Its node drops its contents once no
  // active view holds it. Reactivating a view whose node is still live is
  // O(1); otherwise the node is recomputed from the current base tables,
  // the provider's recovery story for a sharing re-admitted after being
  // parked.
  Status SetViewActive(ViewId id, bool active);
  bool view_active(ViewId id) const {
    return id < handles_.size() && handles_[id].active;
  }

  // nullptr when not registered.
  const Relation* base(TableId table) const;
  const Relation* view(ViewId id) const;
  // An empty key when not registered.
  const ViewKey& view_key(ViewId id) const;
  size_t num_views() const { return handles_.size(); }

  // From-scratch evaluation of `key` over the current base tables (the
  // oracle the incremental path is tested against).
  Result<Relation> Recompute(const ViewKey& key) const;
  Result<Relation> Recompute(const ViewKey& key,
                             const std::vector<std::string>& projection)
      const;

  // Tuple-pairs probed by joins so far (measured maintenance work). Only
  // pipeline-running nodes probe: duplicate views and residual-fed nodes
  // add nothing. The value is determined by the update stream and the live
  // node population.
  uint64_t work() const { return work_; }

  // Materialized (table, node) operand caches built so far.
  size_t num_cached_operands() const;

 private:
  using NodeId = size_t;

  // One probe step of a node's delta-propagation join pipeline.
  struct JoinStep {
    TableId other = 0;
    // Shared columns between the accumulated join schema and `other`, in
    // `other`-schema order — the key the operand's index is built on.
    std::vector<std::string> key_columns;
  };

  // One distinct (key, projection), shared by every view registered with
  // it.
  struct Node {
    ViewKey key;
    std::vector<std::string> projection;  // empty = all columns
    // Maintained while live_handles > 0; empty (columns only) otherwise.
    Relation contents;
    // Columns only: what view() returns for an inactive handle.
    Relation empty;
    size_t live_handles = 0;
    // Per updated table: the other tables in join order with the index
    // key for each probe. Fixed at creation (schemas are static).
    std::map<TableId, std::vector<JoinStep>> join_plans;
  };

  struct Handle {
    NodeId node = 0;
    bool active = true;
  };

  struct NodeKey {
    ViewKey key;
    std::vector<std::string> projection;
    friend bool operator==(const NodeKey&, const NodeKey&) = default;
  };
  struct NodeKeyHash {
    size_t operator()(const NodeKey& k) const;
  };

  // Cached filtered operand for one (table, node) pair. When the node has
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

  // Counts one more active handle on `node`. The first one recomputes the
  // contents from the current base tables; no state changes on error.
  Status AddLiveHandle(NodeId node);
  // Counts one fewer; the last one out drops the contents.
  void DropLiveHandle(NodeId node);
  void SetLiveNodes(size_t n);

  // Materializes the operand caches and indexes a pipeline-running node
  // will probe.
  void PrepareOperands(NodeId node, TableId table);
  const Relation& OperandRelation(NodeId node, TableId other) const;

  // Joins the (filtered) delta through the node's pipeline and returns the
  // node's signed delta, projected and in the node's column order. Adds
  // the join work performed to `work`.
  Relation PipelineDelta(NodeId node, TableId table, const Relation& delta,
                         uint64_t* work) const;
  // Node `node`'s delta derived from `twin_delta`, the delta of the
  // unpredicated node on the same tables: filtered by the node's
  // predicates, by column name, skipping those Recompute would skip.
  Relation ResidualDelta(NodeId node, const Relation& twin_delta) const;

  // Refreshes every live node over `table`, without merging the delta
  // into the base.
  Status PropagateDelta(TableId table, const Relation& delta);
  // Merges the delta into the base relation and patches every cached
  // filtered operand over `table` (live or not — parked nodes' caches
  // must stay fresh for re-admission).
  void MergeDelta(TableId table, const Relation& delta);

  const Catalog* catalog_;
  std::map<TableId, Relation> bases_;
  std::vector<Node> nodes_;
  std::vector<Handle> handles_;  // indexed by ViewId
  std::unordered_map<NodeKey, NodeId, NodeKeyHash> node_of_;
  size_t live_nodes_ = 0;  // the dsm.maintain.view_nodes gauge
  // Operand caches by base table, then by the node that probes them.
  std::map<TableId, std::map<NodeId, Operand>> operands_;
  uint64_t work_ = 0;
};

}  // namespace dsm

#endif  // DSM_MAINTAIN_DELTA_ENGINE_H_
