#include "plan/plan.h"

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

std::string SharingPlan::ToString(const Catalog& catalog) const {
  if (nodes.empty()) return "<empty plan>";
  std::string out;
  AppendNodeString(*this, root_index(), catalog, &out);
  return out;
}

}  // namespace dsm
