// GlobalPlan: the DAG of continuously-maintained views serving all active
// sharings (Section 3.2's "global plan").
//
// Integrating a sharing plan reuses existing views wherever an alive view's
// key subsumes a plan node's key (same table set, predicate subset): the
// node's whole subtree is then skipped and only a residual filter/copy is
// charged. This realizes both the red/green reuse arrows of Figure 3 and
// Example 1.1's "reuse the previous plan, and add a filter on top".
//
// The structure stores only the DAG's nodes and one record per sharing;
// everything else is derived from them. A sharing's closure (the nodes its
// delivery depends on) is a walk of the DAG edges from its plan's nodes,
// and the sharings a failed server takes down are found by one pass over
// the nodes (DESIGN.md §8). The records also keep the bookkeeping fair
// costing needs: per-sharing GPC, and saving(r)/num(r) for every
// intermediate result (Definition 5.1).
//
// One rule decides reuse, in EvaluateSpace, once per shared sub-plan of a
// sharing's PlanSpace (DESIGN.md §11, "Planning over the fragment DAG").
// Commit applies the decisions of the evaluation a caller scored, pricing
// and probing nothing, and refuses a stale one. A single plan is a space of
// one (PlanSpace::Of): EvaluateSpace dry-runs it, AddSharing commits it.
//
// Reuse lookup (DESIGN.md §11) buckets alive views by table mask. An
// evaluation scans the bucket once per (slot, server) of the space and
// answers every other fragment of that slot on that server from its
// table; nothing outlives the evaluation.
// tests/testing/reuse_oracle.h re-derives every decision by a brute-force
// pass over the alive views; the reuse and plan-space oracle tests compare
// the global plan's evaluations with it.
// Admission is single-threaded; no method is thread-safe.

#ifndef DSM_GLOBALPLAN_GLOBAL_PLAN_H_
#define DSM_GLOBALPLAN_GLOBAL_PLAN_H_

#include <limits>
#include <map>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "catalog/catalog.h"
#include "cluster/cluster.h"
#include "common/status.h"
#include "cost/cost_model.h"
#include "plan/plan.h"
#include "plan/plan_space.h"
#include "sharing/sharing.h"

namespace dsm {

class GlobalPlan {
 public:
  struct NodeDecision {
    enum State : uint8_t {
      kFresh,    // node computed anew; its op cost is paid
      kReused,   // node's data taken from an existing view
      kSkipped,  // node lies under a reused ancestor; nothing computed
    };
    State state = kFresh;
    int reuse_source = -1;         // GP node supplying the data (kReused)
    bool needs_residual = false;   // kReused via a new filter/copy op
    double marginal_cost = 0.0;    // $ this node adds to the global plan
  };

  // The dry run of every plan of a PlanSpace (EvaluateSpace).
  struct SpaceEvaluation {
    // One node of one plan, in the plan's node-index order: its fragment
    // and its state in that plan.
    struct Step {
      int fragment = -1;
      NodeDecision::State state = NodeDecision::kFresh;
    };
    struct Plan {
      double marginal_cost = 0.0;  // total additional $ (GREEDY's criterion)
      // Σ per-node op cost with no reuse, summed in the node-index order of
      // Materialize(k): equal bit for bit to PlanCost(Materialize(k)).
      double standalone_cost = 0.0;
      bool feasible = true;  // no work on a down server, capacities kept
      size_t first_step = 0;  // this plan's nodes: steps[first_step, +num)
      size_t num_steps = 0;
    };

    // Per fragment: the fresh-vs-reuse answer (kFresh or kReused), for
    // every fragment some plan reaches.
    std::vector<NodeDecision> fragment_decisions;
    std::vector<Step> steps;
    std::vector<Plan> plans;  // parallel to the space's plans
    // Min standalone_cost over all plans, feasible or not: the sharing's
    // LPC (Section 5, criterion (2)); +inf for an empty space.
    double lpc = std::numeric_limits<double>::infinity();
    // Per fragment reached: the load its decision puts on its server (its
    // own if fresh, the source's delta rate for a residual, else 0).
    std::vector<double> fragment_loads;
    // Structure and liveness epochs at evaluation; Commit refuses the
    // evaluation once either moved.
    uint64_t epoch = 0;
    uint64_t liveness_epoch = 0;

    std::span<const Step> steps_of(size_t k) const {
      return std::span<const Step>(steps).subspan(plans[k].first_step,
                                                  plans[k].num_steps);
    }
    // The step's decision as Commit records it: a skipped node keeps its
    // fragment's decision fields with state kSkipped and cost 0.
    NodeDecision decision(const Step& step) const;
    // The feasible plan with the lowest marginal cost strictly below
    // `bound` (the first one wins a tie), or -1 if there is none.
    int CheapestFeasible(
        double bound = std::numeric_limits<double>::infinity()) const;
  };

  struct AddOptions {
    AddOptions() {}  // user-provided, so `= {}` defaults compile below
    // Keys whose reuse is forbidden (used to reconstruct published global
    // plans, e.g. Figure 3's, where the provider made different choices).
    const std::unordered_set<ViewKey, ViewKeyHash>* forbid_reuse_keys =
        nullptr;
  };

  // Everything remembered about one integrated sharing.
  struct SharingRecord {
    Sharing sharing;
    SharingPlan plan;  // the individual plan (Figure 3(a)'s view)
    std::vector<NodeDecision> decisions;
    std::vector<int> plan_to_gp;          // plan node -> GP node (-1 skipped)
    std::vector<double> standalone_cost;  // per plan node, no reuse
    std::vector<double> subtree_cost;     // per plan node, incl. descendants
    double residual_cost = 0.0;  // extra filter/copy ops created on reuse
    double marginal_cost = 0.0;  // $ the sharing added when integrated
    double gpc = 0.0;            // GPC(S): Σ standalone + residual ops
    // LPC(S) as priced by the admitting planner (min standalone_cost over
    // every enumerated plan); empty for hand-built or restored records,
    // which costing prices from scratch.
    std::optional<double> lpc;
    // Distinct non-leaf plan keys as (interned key id, first plan-node
    // index), in first-appearance order. Lets the per-refresh saving
    // aggregation run on dense integer ids instead of re-hashing ViewKeys
    // for every plan node of every record.
    std::vector<std::pair<int, int>> distinct_keys;
  };

  struct ReuseStat {
    ViewKey key;
    double saving = 0.0;  // Definition 5.1
    int num = 0;          // sharings whose plans include the result
  };

  GlobalPlan(const Cluster* cluster, CostModel* model)
      : cluster_(cluster), model_(model) {}

  GlobalPlan(const GlobalPlan&) = delete;
  GlobalPlan& operator=(const GlobalPlan&) = delete;

  // Dry run of every plan in `space` at once, which must be priced by this
  // global plan's cost model. The fresh-vs-reuse rule depends only on a
  // node's subtree and the (unchanging) global plan, so it runs once per
  // fragment: fragments are decided children first, in the order the
  // plans reach them. The reuse source of a fragment depends only on its
  // slot's key and its server, so the reuse index is scanned once per
  // (slot, server) reached (counted in dsm.globalplan.reuse_index_misses)
  // and every further fragment is answered from that scan
  // (dsm.globalplan.reuse_index_hits). Each plan's totals then come from
  // one post-order walk.
  SpaceEvaluation EvaluateSpace(const PlanSpace& space,
                                const AddOptions& options = {}) const;

  // True when cluster liveness alone makes every enumerated plan of
  // `sharing` infeasible, so a planner may reject or park it without
  // enumerating a single plan (DESIGN.md §8). It holds when
  //  (a) the destination is down, or
  //  (b) some member table's home is down and no alive view on an up
  //      server has that table in its table set.
  // Exact, because EvaluateSpace marks a plan infeasible as soon as it
  // places work (a fresh node, or a reuse with a residual) on a down
  // server, and FindBestReuse only returns alive sources on up servers
  // from the bucket of the needed table set. Every plan's root sits on the
  // destination and is never skipped, so (a) dooms it. Every plan has a
  // leaf for each member table on its home; a leaf on a dead home escapes
  // only as kSkipped under a reused ancestor, whose source would be an
  // alive, up view containing the table, which (b) rules out.
  // Returns false for stateful cost models (!HasPureQueries):
  // skipping their calls would reorder their lazily drawn costs. Says
  // nothing about validity: callers check the sharing is one Enumerate
  // accepts, so invalid sharings keep their validation error.
  bool LivenessRulesOut(const Sharing& sharing) const;

  // Integrates plan `k` of `space` under `id` by applying the decisions of
  // `eval` = EvaluateSpace(space); op costs and loads come from the
  // fragments and `eval`, so nothing is priced or probed again. A space of
  // just one plan's nodes (PlanSpace::Of) records fragment i as node i, so
  // a hand-built plan keeps its node indices; otherwise the record holds
  // Materialize(k). Feasibility is the caller's check (Algorithm 2).
  // AlreadyExists if `id` is integrated; FailedPrecondition if `eval` is
  // stale (a node was created or killed, or a server went up or down,
  // since it was taken), is not of `space`, or `k` is out of range;
  // InvalidArgument unless CheckPlanComputes accepts the plan. `lpc` is
  // stored as the sharing's LPC. Returns the record (valid until removed).
  Result<const SharingRecord*> Commit(SharingId id, const Sharing& sharing,
                                      const PlanSpace& space,
                                      const SpaceEvaluation& eval, size_t k,
                                      std::optional<double> lpc);

  // Commit of EvaluateSpace(PlanSpace::Of(plan)) once CheckPlanComputes
  // accepts `plan`, with no LPC, for restored and hand-built plans.
  Result<const SharingRecord*> AddSharing(SharingId id,
                                          const Sharing& sharing,
                                          const SharingPlan& plan,
                                          const AddOptions& options = {});

  // Removes a sharing; views no longer referenced by anyone are dropped.
  Status RemoveSharing(SharingId id);

  // Total $ per time unit of all alive views: cost(GP).
  double TotalCost() const { return total_cost_; }

  // Current maintenance load (tuples/time unit) on a server.
  double ServerLoad(ServerId server) const;

  // True if the full (unpredicated) join result over `tables` is
  // materialized — "the result of s is produced in some P_j" (Def. 4.3).
  bool HasUnpredicatedView(TableSet tables) const;

  size_t num_sharings() const { return records_.size(); }
  std::vector<SharingId> sharing_ids() const;
  // nullptr if unknown.
  const SharingRecord* record(SharingId id) const;
  // All integrated sharings in id order (costing iterates every record
  // each refresh; per-id lookups would pay a map find apiece).
  const std::map<SharingId, SharingRecord>& records() const {
    return records_;
  }

  double GPC(SharingId id) const;

  // saving(r) and num(r) for every intermediate result appearing in any
  // sharing's plan, summed from scratch over the records (the referee of
  // SavingShares).
  std::vector<ReuseStat> ComputeReuseStats() const;

  // saving(r)/num(r) indexed by interned key id, for every key id some
  // record's `distinct_keys` holds (0.0 where num(r) = 0). Commit and
  // RemoveSharing keep each key's contributions current and mark the key
  // dirty; this call re-sums only the dirty keys, over their contributors
  // in ascending sharing id — AccumulateReuse's order, so each share is
  // bit-identical to ComputeReuseStats's saving / num. The refresh hot
  // path sums these over each record's `distinct_keys` without touching a
  // ViewKey. Valid until the next Commit or RemoveSharing.
  const std::vector<double>& SavingShares() const;

  size_t num_alive_views() const { return alive_count_; }

  // The GP nodes a sharing's delivery transitively depends on (the
  // even-split baseline distributes each node's cost over the sharings
  // whose closure includes it), walked afresh from its record; nullopt if
  // the sharing is unknown. Returned by value: bind it to a local before
  // iterating, since `for (int n : *closure(id))` dangles.
  std::optional<std::vector<int>> closure(SharingId id) const;

  double node_cost(int id) const {
    return nodes_[static_cast<size_t>(id)].cost;
  }
  ServerId node_server(int id) const {
    return nodes_[static_cast<size_t>(id)].server;
  }

  // Sharings whose plan closure includes any alive view materialized on
  // `server` — the blast radius of losing that machine. Sorted by id.
  // One pass over the nodes in id order (children are created before
  // their parents) marks every alive node whose subtree holds a view on
  // `server`; a sharing is hit when its root's node is marked, because its
  // closure is exactly the subtree under its root (the root is never
  // skipped, and every other node it maps to hangs below it).
  std::vector<SharingId> SharingsTouchingServer(ServerId server) const;

 private:
  struct GPNode {
    ViewKey key;
    ServerId server = 0;
    int left = -1;
    int right = -1;
    double cost = 0.0;
    double load = 0.0;  // input delta rate on `server` (NodeLoad)
    int refcount = 0;
    bool alive = true;
    uint64_t pred_sig = 0;  // PredicateSignature(key.predicates)
  };

  // Cheapest way to serve `needed` at `server` from an existing view: one
  // scan of the bucket of needed's table set (alive ids, insertion order)
  // for the cheapest alive subsuming view on an up server. The first exact
  // same-key view on `server` wins outright at residual 0; otherwise the
  // cheapest residual wins, and near-ties keep the earliest candidate.
  // Returns the source GP node id or -1; fills `residual_cost`.
  int FindBestReuse(const ViewKey& needed, ServerId server,
                    const AddOptions& options, double* residual_cost) const;

  // Interns `key`, returning its dense id.
  int InternKey(const ViewKey& key);

  // Accumulates saving(r)/num(r) numerators and counts per interned key
  // id (sized to the current intern table), from scratch over the records.
  void AccumulateReuse(std::vector<double>* saving,
                       std::vector<int>* num) const;

  // What plan node `node` of `rec` adds to saving(r) of its key: the cost
  // its reuse saved if it was reused, else 0 (Definition 5.1).
  static double ReuseSaving(const SharingRecord& rec, int node);

  int CreateNode(GPNode node);
  void KillNode(int id);

  // The closure of `rec`: every node reached from its plan_to_gp over the
  // DAG's edges, in the iteration order of the set the walk fills. That
  // order fixes the refcount and kill order of RemoveSharing (so
  // TotalCost's bits) and the summation order of the even split, and the
  // walk repeats it exactly because node edges never change.
  std::vector<int> ClosureOf(const SharingRecord& rec) const;

  const Cluster* cluster_;
  CostModel* model_;

  std::vector<GPNode> nodes_;
  // tables mask -> alive GP node ids over that table set, in insertion
  // order (the scan order, which tie-breaking depends on).
  std::unordered_map<uint64_t, std::vector<int>> by_tables_;
  std::map<SharingId, SharingRecord> records_;

  double total_cost_ = 0.0;
  std::unordered_map<ServerId, double> server_load_;
  size_t alive_count_ = 0;

  // Bumped by CreateNode/KillNode; an evaluation taken at an older epoch
  // (or an older cluster liveness epoch) is stale.
  uint64_t epoch_ = 0;

  // Filled by CreateNode and Commit, so it grows with GP-node and
  // committed plan keys only. Interned ids key
  // SharingRecord::distinct_keys.
  std::unordered_map<ViewKey, int, ViewKeyHash> key_intern_;
  std::vector<ViewKey> interned_keys_;  // id -> key (reverse table)
  // Per interned key id: the records whose plans include the key, as
  // (sharing id, ReuseSaving) in ascending sharing id, and whether the
  // key's share in `saving_shares_` is stale.
  struct KeySaving {
    std::vector<std::pair<SharingId, double>> contributors;
    mutable bool dirty = false;
  };
  std::vector<KeySaving> key_savings_;
  mutable std::vector<int> dirty_keys_;
  mutable std::vector<double> saving_shares_;  // parallel to key_savings_
  // Marks a key's share stale, growing the tables to reach `kid`.
  KeySaving& TouchKeySaving(int kid);
};

}  // namespace dsm

#endif  // DSM_GLOBALPLAN_GLOBAL_PLAN_H_
