#include "costing/lpc.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"

namespace dsm {

Result<double> LpcCalculator::Lpc(const Sharing& sharing) {
  DeliveredQuery key(sharing);
  const auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  DSM_METRIC_COUNTER_ADD("dsm.costing.lpc_enumerations", 1);
  DSM_ASSIGN_OR_RETURN(const PlanSpace space,
                       enumerator_->Enumerate(sharing));
  if (space.empty()) {
    return Status::InvalidArgument("sharing has no plans");
  }
  double lpc = std::numeric_limits<double>::infinity();
  for (size_t k = 0; k < space.size(); ++k) {
    lpc = std::min(lpc, space.StandaloneCost(k));
  }
  cache_.emplace(std::move(key), lpc);
  return lpc;
}

}  // namespace dsm
