#include "cost/cost_model.h"

#include <cassert>

namespace dsm {

namespace {

const PlanNode* Child(const SharingPlan& plan, int index) {
  return index < 0 ? nullptr : &plan.nodes[static_cast<size_t>(index)];
}

}  // namespace

double NodeCost(const PlanNode& n, const PlanNode* left,
                const PlanNode* right, CostModel* model) {
  switch (n.type) {
    case PlanNodeType::kLeaf:
      return model->LeafCost(n.base_table, n.key, n.server);
    case PlanNodeType::kJoin:
      return model->JoinCost(n.key, n.server, left->key, left->server,
                             right->key, right->server);
    case PlanNodeType::kFilterCopy:
      return model->FilterCopyCost(left->key, left->server, n.key,
                                   n.server);
  }
  assert(false && "unreachable");
  return 0.0;
}

double NodeLoad(const PlanNode& n, const PlanNode* left,
                const PlanNode* right, CostModel* model) {
  switch (n.type) {
    case PlanNodeType::kLeaf:
      // Filtered leaves process the base table's delta stream.
      return n.key.predicates.empty()
                 ? 0.0
                 : model->DeltaRate(ViewKey(TableSet::Of(n.base_table)));
    case PlanNodeType::kJoin:
      return model->DeltaRate(left->key) + model->DeltaRate(right->key);
    case PlanNodeType::kFilterCopy:
      return model->DeltaRate(left->key);
  }
  assert(false && "unreachable");
  return 0.0;
}

double PlanNodeCost(const SharingPlan& plan, size_t index, CostModel* model) {
  const PlanNode& n = plan.nodes[index];
  return NodeCost(n, Child(plan, n.left), Child(plan, n.right), model);
}

double PlanCost(const SharingPlan& plan, CostModel* model) {
  double total = 0.0;
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    total += PlanNodeCost(plan, i, model);
  }
  return total;
}

double PlanNodeLoad(const SharingPlan& plan, size_t index, CostModel* model) {
  const PlanNode& n = plan.nodes[index];
  return NodeLoad(n, Child(plan, n.left), Child(plan, n.right), model);
}

}  // namespace dsm
