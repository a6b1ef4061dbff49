#include "costing/even_split.h"

#include <optional>
#include <unordered_map>

namespace dsm {

Result<std::vector<double>> EvenSplitCosts(
    const GlobalPlan& global_plan, const std::vector<SharingId>& ids) {
  // How many sharings (of the whole plan, not just `ids`) use each node.
  std::unordered_map<int, int> users;
  for (const SharingId id : global_plan.sharing_ids()) {
    const std::optional<std::vector<int>> closure = global_plan.closure(id);
    for (const int node : *closure) ++users[node];
  }

  std::vector<double> ac;
  ac.reserve(ids.size());
  for (const SharingId id : ids) {
    const std::optional<std::vector<int>> closure = global_plan.closure(id);
    if (!closure) {
      return Status::NotFound("unknown sharing id in even-split costing");
    }
    double cost = 0.0;
    for (const int node : *closure) {
      cost += global_plan.node_cost(node) / users[node];
    }
    ac.push_back(cost);
  }
  return ac;
}

}  // namespace dsm
