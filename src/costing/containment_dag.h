// The partial order over sharings induced by fairness criteria (1) and
// (3): identical sharings must share one attributed cost, and a sharing
// whose tuples are contained in another's (with no larger LPC) must not be
// charged more than the container. Both are questions about the sharings'
// queries (Sharing::ResultKey): identity is ViewKey equality and
// containment is ViewKey::Subsumes.

#ifndef DSM_COSTING_CONTAINMENT_DAG_H_
#define DSM_COSTING_CONTAINMENT_DAG_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "expr/view_key.h"

namespace dsm {

// The queries of a sharing population, referenced rather than copied.
using QueryRefs = std::vector<std::reference_wrapper<const ViewKey>>;

struct ContainmentDag {
  // identity_group[i] == identity_group[j] iff sharings i and j are the
  // same query (criterion (1)); group values are dense, starting at 0.
  std::vector<uint32_t> identity_group;
  // containers[i] = indices j such that sharing i is (strictly) contained
  // in sharing j and LPC(i) <= LPC(j); criterion (3) then requires
  // AC(i) <= AC(j).
  std::vector<std::vector<int>> containers;
};

ContainmentDag BuildContainmentDag(const QueryRefs& queries,
                                   const std::vector<double>& lpc);

}  // namespace dsm

#endif  // DSM_COSTING_CONTAINMENT_DAG_H_
