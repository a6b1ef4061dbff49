#include "costing/lpc.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"

namespace dsm {

Result<double> LpcCalculator::Lpc(const Sharing& sharing) {
  const uint64_t key = sharing.QueryHash() ^
                       (0x9e3779b97f4a7c15ULL * (sharing.destination() + 1));
  const auto [begin, end] = cache_.equal_range(key);
  for (auto it = begin; it != end; ++it) {
    const Sharing& cached = it->second.sharing;
    if (cached.IdenticalTo(sharing) &&
        cached.destination() == sharing.destination()) {
      return it->second.lpc;
    }
  }

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
  cache_.emplace(key, Entry{sharing, lpc});
  return lpc;
}

}  // namespace dsm
