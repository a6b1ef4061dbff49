#include "plan/plan_space.h"

#include <utility>

#include "cost/cost_model.h"

namespace dsm {
namespace {

// Appends fragment `id`'s tree to `out` in post-order; returns the index
// its node lands at.
int MaterializeInto(const PlanSpace& space, int id, SharingPlan* out) {
  PlanNode node = space.node(id);
  if (node.left >= 0) node.left = MaterializeInto(space, node.left, out);
  if (node.right >= 0) node.right = MaterializeInto(space, node.right, out);
  out->nodes.push_back(std::move(node));
  return static_cast<int>(out->nodes.size()) - 1;
}

// Adds fragment `id`'s subtree op costs to *total in post-order.
void SumInto(const PlanSpace& space, int id, double* total) {
  const PlanSpace::Fragment& frag = space.fragment(id);
  if (frag.left >= 0) SumInto(space, frag.left, total);
  if (frag.right >= 0) SumInto(space, frag.right, total);
  *total += frag.op_cost;
}

}  // namespace

PlanSpace PlanSpace::Of(const SharingPlan& plan, CostModel* model) {
  PlanSpace space;
  space.fragments_.reserve(plan.nodes.size());
  space.slot_keys_.reserve(plan.nodes.size());
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    const PlanNode& node = plan.nodes[i];
    Fragment frag;
    frag.type = node.type;
    frag.server = node.server;
    frag.left = node.left;
    frag.right = node.right;
    frag.base_table = node.base_table;
    frag.slot = static_cast<int>(i);
    frag.op_cost = PlanNodeCost(plan, i, model);
    frag.load = PlanNodeLoad(plan, i, model);
    space.fragments_.push_back(frag);
    space.slot_keys_.push_back(node.key);
  }
  space.roots_.push_back(plan.root_index());
  return space;
}

PlanNode PlanSpace::node(int id) const {
  const Fragment& frag = fragment(id);
  PlanNode node;
  node.type = frag.type;
  node.key = key(frag);
  node.server = frag.server;
  node.left = frag.left;
  node.right = frag.right;
  node.base_table = frag.base_table;
  return node;
}

SharingPlan PlanSpace::Materialize(size_t k) const {
  SharingPlan plan;
  MaterializeInto(*this, roots_[k], &plan);
  return plan;
}

double PlanSpace::StandaloneCost(size_t k) const {
  double total = 0.0;
  SumInto(*this, roots_[k], &total);
  return total;
}

}  // namespace dsm
