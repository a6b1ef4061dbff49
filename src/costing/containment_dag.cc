#include "costing/containment_dag.h"

#include <cassert>

namespace dsm {

ContainmentDag BuildContainmentDag(const QueryRefs& queries,
                                   const std::vector<double>& lpc) {
  assert(queries.size() == lpc.size());
  const size_t n = queries.size();
  ContainmentDag dag;
  dag.identity_group.assign(n, 0);
  dag.containers.assign(n, {});

  // Identity groups by pairwise comparison (n is modest; the quadratic
  // pass keeps ViewKey equality the single source of truth).
  std::vector<int> group_of(n, -1);
  uint32_t next_group = 0;
  for (size_t i = 0; i < n; ++i) {
    if (group_of[i] >= 0) continue;
    group_of[i] = static_cast<int>(next_group);
    for (size_t j = i + 1; j < n; ++j) {
      if (group_of[j] < 0 && queries[i].get() == queries[j].get()) {
        group_of[j] = static_cast<int>(next_group);
      }
    }
    ++next_group;
  }
  for (size_t i = 0; i < n; ++i) {
    dag.identity_group[i] = static_cast<uint32_t>(group_of[i]);
  }

  const double kTol = 1e-12;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j || group_of[i] == group_of[j]) continue;
      if (queries[j].get().Subsumes(queries[i]) && lpc[i] <= lpc[j] + kTol) {
        dag.containers[i].push_back(static_cast<int>(j));
      }
    }
  }
  return dag;
}

}  // namespace dsm
