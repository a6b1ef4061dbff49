// PlanSpace: every enumerated plan of one sharing as a DAG of shared
// sub-plans (fragments), as PlanEnumerator::Enumerate returns it.
//
// The enumerator's dynamic program builds each sub-plan once and every
// plan above it shares it, so a sharing's ~700 plans are ~1,500
// fragments rather than ~7,000 nodes. No two roots are the same tree.
// A fragment is flat: its type, server, child ids and DP slot. The
// slot's view key, which every fragment of the slot produces, is stored
// once per slot. Each fragment is priced at creation (op cost and load
// under the enumerator's cost model), and a plan is just a root fragment.
// GlobalPlan::EvaluateSpace dry-runs the whole space, probing reuse once
// per (slot, server); only the plan a caller commits needs Materialize.

#ifndef DSM_PLAN_PLAN_SPACE_H_
#define DSM_PLAN_PLAN_SPACE_H_

#include <cstddef>
#include <vector>

#include "plan/plan.h"

namespace dsm {

class CostModel;

class PlanSpace {
 public:
  struct Fragment {
    PlanNodeType type = PlanNodeType::kLeaf;
    ServerId server = 0;
    // Child fragment ids (-1 when absent); a child's id is always below
    // its parent's.
    int left = -1;
    int right = -1;
    TableId base_table = 0;  // leaves only
    int slot = 0;            // index of the fragment's key in slot_keys()
    double op_cost = 0.0;    // NodeCost of node(f)
    double load = 0.0;       // NodeLoad of node(f)

    bool is_join() const { return type == PlanNodeType::kJoin; }
  };

  // The space of one plan: fragment i is plan.nodes[i] in its own slot i,
  // priced under `model` in node-index order, and the one root is the last
  // node. `plan` must be a tree rooted at its last node (CheckPlanComputes).
  static PlanSpace Of(const SharingPlan& plan, CostModel* model);

  // Number of plans.
  size_t size() const { return roots_.size(); }
  bool empty() const { return roots_.empty(); }

  const std::vector<Fragment>& fragments() const { return fragments_; }
  const Fragment& fragment(int id) const {
    return fragments_[static_cast<size_t>(id)];
  }
  // The view key every fragment of a slot produces, by slot index.
  const std::vector<ViewKey>& slot_keys() const { return slot_keys_; }
  const ViewKey& key(const Fragment& f) const {
    return slot_keys_[static_cast<size_t>(f.slot)];
  }
  // Fragment `id` as a plan node (children as fragment ids).
  PlanNode node(int id) const;
  // Root fragment of plan k.
  int root(size_t k) const { return roots_[k]; }

  // Plan k as a node array: the root fragment's tree in post-order (left
  // subtree, right subtree, node), the order every per-plan walk over the
  // space uses.
  SharingPlan Materialize(size_t k) const;

  // Σ op cost over plan k's nodes in node-index order: bit for bit
  // PlanCost(Materialize(k), model) under the pricing model.
  double StandaloneCost(size_t k) const;

 private:
  friend class PlanEnumerator;

  std::vector<Fragment> fragments_;
  std::vector<ViewKey> slot_keys_;
  std::vector<int> roots_;
};

}  // namespace dsm

#endif  // DSM_PLAN_PLAN_SPACE_H_
