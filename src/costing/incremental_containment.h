// IncrementalContainmentIndex: the containment DAG of BuildContainmentDag
// maintained across costing refreshes.
//
// A CostingSession re-runs FAIRCOST after every arrival, and the scratch
// DAG build is O(n²) pairwise query comparisons — the dominant FAIRCOST
// cost once LPCs are memoized. Sharings rarely change between refreshes,
// so this index keeps the identity groups and containment edges of the
// surviving population and only compares newly arrived sharings (against
// everyone) and drops removed ones. Identity groups are keyed by the query
// itself, so an identical twin is found in one hash lookup. New-vs-existing
// comparisons are pruned before the exact ViewKey::Subsumes check by
//   * the table mask (containment requires the same table set),
//   * predicate count (a container has a subset of the predicates), and
//   * a bloom-style predicate signature (subset refutation in one AND).
// The emitted Output is field-for-field identical to BuildContainmentDag
// over the same (queries, lpc) input — the randomized equivalence test
// asserts this after arbitrary add/remove interleavings.

#ifndef DSM_COSTING_INCREMENTAL_CONTAINMENT_H_
#define DSM_COSTING_INCREMENTAL_CONTAINMENT_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "costing/containment_dag.h"
#include "sharing/sharing.h"

namespace dsm {

class IncrementalContainmentIndex {
 public:
  // Brings the index up to date with the current population (`ids`,
  // `queries` and `lpc` are parallel; ids are unique) and returns the
  // DAG in input order, exactly as BuildContainmentDag would.
  ContainmentDag Update(const std::vector<SharingId>& ids,
                        const QueryRefs& queries,
                        const std::vector<double>& lpc);

  void Reset();

  size_t num_members() const { return members_.size(); }

 private:
  // The identity groups: each distinct query present -> its member count.
  using Groups = std::unordered_map<ViewKey, size_t, ViewKeyHash>;

  struct Member {
    // The member's group; `group->first` is its query. Map elements keep
    // their address across rehashes.
    Groups::value_type* group = nullptr;
    double lpc = 0.0;
    uint64_t table_mask = 0;
    uint64_t pred_sig = 0;
    size_t pred_count = 0;
    std::vector<SharingId> containers;  // ids of containing sharings
  };

  void AddMember(SharingId id, const ViewKey& query, double lpc);
  void RemoveMembers(const std::vector<SharingId>& removed);

  std::unordered_map<SharingId, Member> members_;
  Groups groups_;
};

}  // namespace dsm

#endif  // DSM_COSTING_INCREMENTAL_CONTAINMENT_H_
