#include "plan/plan_space.h"

#include <utility>

#include "cost/cost_model.h"

namespace dsm {
namespace {

// Appends fragment `id`'s tree to `out` in post-order; returns the index
// its node lands at.
int MaterializeInto(const PlanSpace& space, int id, SharingPlan* out) {
  const PlanSpace::Fragment& frag = space.fragment(id);
  PlanNode node = frag.node;
  if (node.left >= 0) node.left = MaterializeInto(space, node.left, out);
  if (node.right >= 0) node.right = MaterializeInto(space, node.right, out);
  out->nodes.push_back(std::move(node));
  return static_cast<int>(out->nodes.size()) - 1;
}

// Adds fragment `id`'s subtree op costs to *total in post-order.
void SumInto(const PlanSpace& space, int id, double* total) {
  const PlanSpace::Fragment& frag = space.fragment(id);
  if (frag.node.left >= 0) SumInto(space, frag.node.left, total);
  if (frag.node.right >= 0) SumInto(space, frag.node.right, total);
  *total += frag.op_cost;
}

}  // namespace

PlanSpace PlanSpace::Of(const SharingPlan& plan, CostModel* model) {
  PlanSpace space;
  space.fragments_.reserve(plan.nodes.size());
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    Fragment frag;
    frag.node = plan.nodes[i];
    frag.op_cost = PlanNodeCost(plan, i, model);
    frag.load = PlanNodeLoad(plan, i, model);
    space.fragments_.push_back(std::move(frag));
  }
  space.roots_.push_back(plan.root_index());
  return space;
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
