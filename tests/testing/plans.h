// Test helper: every plan of a sharing as a node array.

#ifndef DSM_TESTS_TESTING_PLANS_H_
#define DSM_TESTS_TESTING_PLANS_H_

#include <vector>

#include "common/status.h"
#include "plan/enumerator.h"

namespace dsm {
namespace testing_support {

// Enumerate, with every plan of the space materialized in order.
inline Result<std::vector<SharingPlan>> EnumerateAll(
    const PlanEnumerator& enumerator, const Sharing& sharing) {
  DSM_ASSIGN_OR_RETURN(const PlanSpace space, enumerator.Enumerate(sharing));
  std::vector<SharingPlan> plans;
  plans.reserve(space.size());
  for (size_t k = 0; k < space.size(); ++k) {
    plans.push_back(space.Materialize(k));
  }
  return plans;
}

}  // namespace testing_support
}  // namespace dsm

#endif  // DSM_TESTS_TESTING_PLANS_H_
