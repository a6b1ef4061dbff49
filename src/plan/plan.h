// Sharing plans: trees of maintenance operators.
//
// A sharing plan (Section 3.2) decides the join order, where predicates are
// applied, and on which server each intermediate view is materialized. Every
// internal node is a continuously-maintained view: its delta streams are the
// children's delta streams, as in Figure 2 of the paper (apply-updates /
// copy / merge are folded into the per-node cost model rather than
// represented as separate nodes).

#ifndef DSM_PLAN_PLAN_H_
#define DSM_PLAN_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "cluster/cluster.h"
#include "common/status.h"
#include "expr/view_key.h"
#include "sharing/sharing.h"

namespace dsm {

enum class PlanNodeType : uint8_t {
  // A base relation (optionally filtered at the source). Base relations are
  // maintained by their owners; an unpredicated leaf costs nothing extra.
  kLeaf,
  // Incremental natural join of the two children, materialized at `server`.
  kJoin,
  // Unary op on the single (left) child: applies residual predicates and/or
  // relocates the delta stream to another server (e.g. the buyer's).
  kFilterCopy,
};

struct PlanNode {
  PlanNodeType type = PlanNodeType::kLeaf;
  // Identity of the data this node produces.
  ViewKey key;
  // Server where the node's view is materialized.
  ServerId server = 0;
  // Child indices into SharingPlan::nodes; -1 when absent.
  int left = -1;
  int right = -1;
  // For leaves: the base table.
  TableId base_table = 0;

  bool is_join() const { return type == PlanNodeType::kJoin; }

  friend bool operator==(const PlanNode&, const PlanNode&) = default;
};

// A plan for one sharing. Nodes are stored in topological order (children
// before parents); the last node is the root, which produces the sharing's
// result at its destination server.
struct SharingPlan {
  std::vector<PlanNode> nodes;

  bool empty() const { return nodes.empty(); }
  int root_index() const { return static_cast<int>(nodes.size()) - 1; }
  const PlanNode& root() const { return nodes.back(); }

  // Equal plans are the same tree: node for node, in the same order.
  friend bool operator==(const SharingPlan&, const SharingPlan&) = default;

  // e.g. "((USERS ⋈ TWEETS)@s0 ⋈ CURLOC)@s1".
  std::string ToString(const Catalog& catalog) const;
};

// OK when `plan` computes `sharing`: every node has the children its type
// needs, each stored before it; the plan is a tree rooted at its last node
// (every other node is the child of exactly one node); and the root
// produces sharing.ResultKey() on sharing.destination(). InvalidArgument
// otherwise. GlobalPlan::AddSharing and the market-state parser check
// every plan they accept.
Status CheckPlanComputes(const SharingPlan& plan, const Sharing& sharing);

}  // namespace dsm

#endif  // DSM_PLAN_PLAN_H_
