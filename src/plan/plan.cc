#include "plan/plan.h"

#include <vector>

namespace dsm {
namespace {

void AppendNodeString(const SharingPlan& plan, int index,
                      const Catalog& catalog, std::string* out) {
  const PlanNode& n = plan.nodes[static_cast<size_t>(index)];
  switch (n.type) {
    case PlanNodeType::kLeaf:
      *out += catalog.table(n.base_table).name;
      if (!n.key.predicates.empty()) {
        *out += "[σ]";
      }
      break;
    case PlanNodeType::kJoin:
      *out += "(";
      AppendNodeString(plan, n.left, catalog, out);
      *out += " ⋈ ";
      AppendNodeString(plan, n.right, catalog, out);
      *out += ")@s" + std::to_string(n.server);
      break;
    case PlanNodeType::kFilterCopy:
      *out += "σc[";
      AppendNodeString(plan, n.left, catalog, out);
      *out += "]@s" + std::to_string(n.server);
      break;
  }
}

}  // namespace

Status CheckPlanComputes(const SharingPlan& plan, const Sharing& sharing) {
  if (plan.empty()) return Status::InvalidArgument("empty plan");
  std::vector<int> parents(plan.nodes.size(), 0);
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    const PlanNode& node = plan.nodes[i];
    // A leaf has no child, a join two, a filter/copy a left one.
    if ((node.left != -1) == (node.type == PlanNodeType::kLeaf) ||
        (node.right != -1) != node.is_join()) {
      return Status::InvalidArgument(
          "plan node has the wrong children for its type");
    }
    for (const int child : {node.left, node.right}) {
      if (child == -1) continue;
      if (child < 0 || static_cast<size_t>(child) >= i) {
        return Status::InvalidArgument("plan node child index out of range");
      }
      ++parents[static_cast<size_t>(child)];
    }
  }
  // Children precede parents, so the last node has no parent; it is the
  // root of a tree exactly when every other node has one parent.
  for (size_t i = 0; i + 1 < plan.nodes.size(); ++i) {
    if (parents[i] != 1) {
      return Status::InvalidArgument(
          "plan is not a tree: node " + std::to_string(i) +
          " is the child of " + std::to_string(parents[i]) + " nodes");
    }
  }
  if (!(plan.root().key == sharing.ResultKey()) ||
      plan.root().server != sharing.destination()) {
    return Status::InvalidArgument(
        "plan root does not produce the sharing's result at its "
        "destination");
  }
  return Status::OK();
}

std::string SharingPlan::ToString(const Catalog& catalog) const {
  if (nodes.empty()) return "<empty plan>";
  std::string out;
  AppendNodeString(*this, root_index(), catalog, &out);
  return out;
}

}  // namespace dsm
