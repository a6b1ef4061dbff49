// PlanSpace: every enumerated plan of one sharing as a DAG of shared
// sub-plans (fragments), as PlanEnumerator::Enumerate returns it.
//
// The enumerator's dynamic program builds each sub-plan once and every
// plan above it shares it, so a sharing's ~700 plans are ~1,500
// fragments rather than ~7,000 nodes. No two roots are the same tree. Each fragment is priced once, at
// creation (op cost and load under the enumerator's cost model), and a
// plan is just a root fragment. GlobalPlan::EvaluateSpace dry-runs the
// whole space fragment by fragment; only the plan a caller commits needs
// Materialize.

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
    // left/right are child fragment ids (-1 when absent); a child's id is
    // always below its parent's.
    PlanNode node;
    double op_cost = 0.0;  // NodeCost of the node
    double load = 0.0;     // NodeLoad of the node
  };

  // The space of one plan: fragment i is plan.nodes[i], priced under
  // `model` in node-index order, and the one root is the last node.
  // `plan` must be a tree rooted at its last node (CheckPlanComputes).
  static PlanSpace Of(const SharingPlan& plan, CostModel* model);

  // Number of plans.
  size_t size() const { return roots_.size(); }
  bool empty() const { return roots_.empty(); }

  const std::vector<Fragment>& fragments() const { return fragments_; }
  const Fragment& fragment(int id) const {
    return fragments_[static_cast<size_t>(id)];
  }
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
  std::vector<int> roots_;
};

}  // namespace dsm

#endif  // DSM_PLAN_PLAN_SPACE_H_
