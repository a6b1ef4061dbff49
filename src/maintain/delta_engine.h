// DeltaEngine: an executable incremental view maintenance substrate.
//
// The paper's evaluation costs plans analytically, but a real data market
// must actually keep purchased views fresh. The engine maintains
// materialized views σ_Q(⋈ T_1..T_k) under base-table inserts and deletes
// using the counting algorithm: a delta to table t is joined against the
// other (current) base tables, and the resulting signed delta is filtered
// and merged into the view — the apply-updates / copy / merge / join
// pipeline of the paper's Figure 2, collapsed onto one machine. It also
// meters the work performed, providing a measured counterpart to the
// DefaultCostModel's CPU estimates. Every relation it keeps — bases,
// deltas, views — is a compact columnar Relation (DESIGN.md §12);
// DeltaEngine::Recompute is the from-scratch oracle the incremental path
// is tested against.
//
// Views are held as nodes and handles (DESIGN.md §13). A *node* is one
// distinct ViewKey: it owns the materialized contents. A *handle* is what
// RegisterView returns as a ViewId: a node index and an active flag. Any
// number of handles (one per buyer sharing) can hold one node; the node
// is live while at least one of them is active.
//
// Shared propagation makes maintenance scale with the sharing population
// (DESIGN.md §10, §13). Each update round groups the affected live nodes
// by table set and computes one unpredicated join delta per group,
// probing the base relations through their persistent equi-join indexes.
// A group's join delta is fed from the largest source already computed
// in the round that its table set contains: the table set of an affected
// sub-join, or else the updated table's own delta. Only the tables
// outside the source are joined on, and the last probe writes its rows
// in the set's column order, which is every node's over the set. The
// probe steps for a (set, source) pair are planned once, each with its
// join shape prepared (PrepareJoin), so a round redoes no column
// bookkeeping. The
// group's join delta is then routed into its nodes: an unpredicated node
// merges it whole, a predicated one merges the rows its predicates keep
// (σ commutes with the natural join, so this is exact under bag
// semantics), with no per-node copy of the delta. Each node merges once
// per round, however many handles hold it.
//
// A node starts, or comes back to, life through its table set's join too
// (DESIGN.md §13): the nodes over one set that RegisterView or
// SetViewActive brings to life in one call take their rows from one fill.
// Its source is a live node over the set that no predicate filters (its
// contents are the join), or else the set's lowest table's base, joined
// with the set's other bases through the same indexes and probe plans as
// a delta; each row is then routed into each node as in a round.
// Recompute, the from-scratch oracle, is not on any data path.
//
// Maintenance is single-threaded and the engine starts no threads. A
// batch computes every table's join deltas before it merges any into a
// view (views are read by no join), so a failed batch changes nothing. A
// worker pool over the nodes measured slower than this serial path once
// shared propagation left too little work per round (DESIGN.md §10).

#ifndef DSM_MAINTAIN_DELTA_ENGINE_H_
#define DSM_MAINTAIN_DELTA_ENGINE_H_

#include <map>
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

  // Registers a view to maintain; a new key's node is filled from its
  // table set's join, as SetViewActive fills a revived one, and kept
  // incrementally fresh afterwards. A view whose key equals one already
  // registered attaches to its node: no second copy of the contents, and
  // no fill while the node is live. On error no view is added (a new key
  // keeps its node, holding nothing, for its next registration).
  Result<ViewId> RegisterView(const ViewKey& key);

  // Applies inserts/deletes to base `table`: the base relation and all
  // registered views over the table are brought up to date. Every
  // tuple must have the base schema's arity; otherwise InvalidArgument is
  // returned and no state changes. A delete of more copies of a tuple
  // than the base holds is InvalidArgument too, with no state change: base
  // tables stay non-negative. A one-entry ApplyUpdates, so it also counts
  // as one batch in `dsm.maintain.batches`.
  Status ApplyUpdate(TableId table, const std::vector<Tuple>& inserts,
                     const std::vector<Tuple>& deletes);

  // Batched entry point: coalesces same-table deltas, then propagates one
  // combined delta per table in ascending table order. Equivalent to the
  // corresponding sequence of ApplyUpdate calls (deltas to one table
  // commute through filters and joins), but each view is refreshed once
  // per table instead of once per batch entry. Validates every table,
  // every tuple's arity and, once coalesced, every table's deletes against
  // its base before touching any state. Each valid call counts one batch in
  // `dsm.maintain.batches`. All or nothing: when a table's join fails, the
  // bases merged so far are taken back, and the error returns with every
  // base, view and work() as before the call.
  Status ApplyUpdates(std::span<const TableUpdate> updates);

  // Degraded mode: an inactive view is not maintained and reads as empty
  // (the hosting machine is gone). Its node drops its contents once no
  // active view holds it. Reactivating a view whose node is still live is
  // O(1); the nodes the call brings back to life are filled, one fill per
  // table set for the whole call, the provider's recovery story for
  // sharings re-admitted after being parked. An id may repeat. All or
  // nothing: every id is checked and every fill is done before any handle,
  // node or counter changes, so on error (NotFound for an unknown id, or a
  // failed fill) none has.
  Status SetViewActive(std::span<const ViewId> ids, bool active);
  Status SetViewActive(ViewId id, bool active) {
    return SetViewActive(std::span<const ViewId>(&id, 1), active);
  }
  bool view_active(ViewId id) const {
    return id < handles_.size() && handles_[id].active;
  }

  // nullptr when not registered.
  const Relation* base(TableId table) const;
  const Relation* view(ViewId id) const;
  // An empty key when not registered.
  const ViewKey& view_key(ViewId id) const;
  size_t num_views() const { return handles_.size(); }

  // From-scratch evaluation of `key` over the current base tables: the
  // oracle the maintained and filled views are checked against. No engine
  // path calls it.
  Result<Relation> Recompute(const ViewKey& key) const;

  // Tuple-pairs probed by update joins so far (measured maintenance work;
  // fills add nothing). Each round computes one join delta per affected
  // table set, and probes only the tables outside its source: a set with
  // an affected sub-join joins the sub-join's delta instead of repeating
  // its probes. Duplicate views and the predicated nodes of a table set
  // add nothing. The value is determined by the update stream and the
  // live table sets. A batch that fails adds nothing.
  uint64_t work() const { return work_; }

 private:
  using NodeId = size_t;

  // One probe step of a table set's delta-propagation join, prepared
  // once: the schemas a step joins never change.
  struct JoinStep {
    TableId other = 0;
    // Shared columns between the accumulated join schema and `other`, in
    // `other`-schema order — the key the base's index is built on.
    std::vector<std::string> key_columns;
    // The join of the accumulated schema with `other`'s; the last step's
    // writes the set's columns.
    JoinShape shape;
  };

  // The join every node over one table set takes its delta from. Its
  // columns are fixed at the first registration over the set (schemas are
  // static).
  struct TableSetJoin {
    // The unpredicated join's columns, in Recompute's order.
    std::vector<std::string> columns;
    // The nodes over the set, in registration order.
    std::vector<NodeId> nodes;
    // Per source table set (a sub-join's, or the updated table alone): the
    // set's other tables in join order with the index key and the
    // prepared shape of each probe. Built on first use.
    std::map<TableSet, std::vector<JoinStep>> plans;
  };

  // A predicate of a node resolved to a slot position in its table set's
  // columns.
  struct RowFilter {
    size_t position = 0;
    CompareOp op = CompareOp::kEq;
    double value = 0.0;
  };

  // One distinct key, shared by every view registered with it.
  struct Node {
    ViewKey key;
    // The key's predicates that Recompute applies, resolved once at
    // registration. Empty: the node takes its table set's join delta
    // whole.
    std::vector<RowFilter> filters;
    // Maintained while live_handles > 0; empty (columns only) otherwise.
    Relation contents;
    // Columns only: what view() returns for an inactive handle.
    Relation empty;
    size_t live_handles = 0;
  };

  struct Handle {
    NodeId node = 0;
    bool active = true;
  };

  // Recompute's per-table filter: returns `rel` filtered by the key's
  // predicates that apply to `table`; when none apply the input reference
  // is returned and `scratch` is left untouched (no copy).
  const Relation& ApplyTablePredicates(const ViewKey& key, TableId table,
                                       const Relation& rel,
                                       Relation* scratch) const;

  // Fresh contents for `targets`, nodes over `tables` that are not live,
  // from one source: a live node over the set with no filters (no join),
  // else the set's lowest table's base, joined with the set's other bases
  // by JoinDelta.
  // Each source row is routed into each target through its filters.
  // Changes no node, work() or counter (it may build a base index or a
  // join plan).
  struct Fill {
    std::vector<Relation> contents;  // one per target
    bool joined = false;             // the source was joined
    uint64_t rows = 0;               // rows merged into the targets
  };
  Result<Fill> FillNodes(const TableSet& tables, TableSetJoin* join,
                         std::span<const NodeId> targets);

  // The shared join of `tables`, built on first request. NotFound when a
  // table of the set has no registered base.
  Result<TableSetJoin*> JoinOf(const TableSet& tables);
  // Probe steps joining a relation with columns `schema` to the tables
  // `others`, ordered by connectivity, each with its prepared shape; the
  // last step writes its rows in `out_columns`, the set's column order.
  std::vector<JoinStep> BuildJoinPlan(
      std::vector<std::string> schema, const TableSet& others,
      const std::vector<std::string>& out_columns) const;

  // Counts one more active handle on each of `nodes` (a node may repeat).
  // The nodes that were not live are filled first, one FillNodes per table
  // set; no state changes on error.
  Status AddLiveHandles(std::span<const NodeId> nodes);
  // Counts one fewer; the last one out drops the contents.
  void DropLiveHandle(NodeId node);
  void SetLiveNodes(size_t n);

  // Δ(⋈ tables) from `source_delta` = Δ(⋈ source), source ⊆ tables:
  // joins it against the bases of the tables outside `source`, through
  // their indexes (built here on first use); the last probe writes the
  // rows in the set's column order. `join` is the set's; its plan for
  // `source` is built on first use. An empty source delta joins nothing.
  // Adds the join work performed to *work.
  Relation JoinDelta(const TableSet& tables, TableSetJoin* join,
                     const TableSet& source, const Relation& source_delta,
                     uint64_t* work);

  // One table's round of a batch: the live nodes over the table, grouped
  // by table set (groups in mask order, each in registration order), and
  // each group's join delta.
  // Nothing of it reaches a view, work() or a round counter until every
  // round of the batch has joined.
  struct Round {
    std::vector<NodeId> nodes;
    // Per group: one past its last index in `nodes`, and its join delta.
    std::vector<std::pair<size_t, Relation>> groups;
    uint64_t work = 0;
    size_t refreshes = 0;      // active views brought up to date
    size_t predicated = 0;     // predicated nodes
    size_t subjoin_feeds = 0;  // groups joined from a sub-join's delta
  };

  // Phase 1: computes `table`'s round from its coalesced `delta`, reading
  // the bases as they stand. Changes no base row, node, work() or
  // counter (it may build a base index or a join plan).
  Status JoinRound(TableId table, const Relation& delta, Round* round);
  // Phase 2: routes every group's join delta into the group's nodes and
  // commits the round's counts.
  void MergeRound(const Round& round);
  // Merges into `into` each row of `rows` (in the set's column order) that
  // passes every filter, with its stored hash, in one batched merge;
  // returns the rows merged.
  uint64_t RouteRows(const TupleStore& rows,
                     const std::vector<RowFilter>& filters, Relation* into);

  const Catalog* catalog_;
  std::map<TableId, Relation> bases_;
  std::vector<Node> nodes_;
  std::vector<Handle> handles_;  // indexed by ViewId
  std::unordered_map<ViewKey, NodeId, ViewKeyHash> node_of_;
  size_t live_nodes_ = 0;  // the dsm.maintain.view_nodes gauge
  std::map<TableSet, TableSetJoin> joins_;
  uint64_t work_ = 0;
  // RouteRows' selection of row ids, reused across calls.
  std::vector<uint32_t> selected_;
};

}  // namespace dsm

#endif  // DSM_MAINTAIN_DELTA_ENGINE_H_
