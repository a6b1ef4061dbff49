// IncrementalContainmentIndex: the containment DAG of BuildContainmentDag
// maintained across costing refreshes.
//
// A CostingSession re-runs FAIRCOST after every arrival, and the scratch
// DAG build is O(n²) pairwise query comparisons — the dominant FAIRCOST
// cost once LPCs are memoized. Sharings rarely change between refreshes,
// so this index keeps one row per sharing, in the population's id order,
// with its identity group and its containers as row positions. Update
// finds the arrivals and removals by one merge of the new id list against
// the rows, compares only the arrivals (against everyone), and maps the
// kept container positions to the rows' new places. An arrival can land
// mid-order: a re-admitted sharing keeps its old, lower id. Identity
// groups are keyed by the query itself, so an identical twin is found in
// one hash lookup.
// New-vs-existing comparisons are pruned before the exact
// ViewKey::Subsumes check by
//   * the table mask (containment requires the same table set),
//   * predicate count (a container has a subset of the predicates), and
//   * a bloom-style predicate signature (subset refutation in one AND).
// The emitted DAG is field-for-field identical to BuildContainmentDag
// over the same (queries, lpc) input — the randomized equivalence test
// asserts this after arbitrary add/remove/re-add interleavings.

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
  // `queries` and `lpc` are parallel; ids are unique and ascending, as
  // GlobalPlan::records() lists them; a sharing's query never changes
  // under its id) and returns the DAG in input order, exactly as
  // BuildContainmentDag would. The DAG is the index's own, kept in place:
  // the reference is valid until the next Update or Reset.
  const ContainmentDag& Update(const std::vector<SharingId>& ids,
                               const QueryRefs& queries,
                               const std::vector<double>& lpc);

  void Reset();

  size_t num_members() const { return rows_.size(); }

 private:
  struct Group {
    size_t members = 0;
    // Groups are numbered densely by first appearance in row order. A
    // group whose stamp is not the index's has no number yet.
    uint64_t stamp = 0;
    uint32_t number = 0;
  };
  // The identity groups: each distinct query present -> its group.
  using Groups = std::unordered_map<ViewKey, Group, ViewKeyHash>;

  struct Row {
    SharingId id = 0;
    // The row's group; `group->first` is its query. Map elements keep
    // their address across rehashes.
    Groups::value_type* group = nullptr;
    double lpc = 0.0;
    uint64_t table_mask = 0;
    uint64_t pred_sig = 0;
    size_t pred_count = 0;
    bool pending = false;  // an arrival not linked yet
  };

  // One merge of `ids` against the rows. A row whose id left is dropped —
  // and so, defensively, is one whose LPC changed (LPCs are memoized
  // upstream, so that re-add guard is not a steady-state path); every
  // other id is an arrival at its id's place. Container positions follow
  // their rows, and identity groups are numbered afresh.
  void Merge(const std::vector<SharingId>& ids,
             const std::vector<double>& lpc);
  // Indexes the pending arrival at `rows_[pos]`: joins or opens its
  // identity group and links it with every row not pending.
  void IndexArrival(size_t pos, const ViewKey& query);
  // Numbers the group of row `pos` if it has no number yet.
  void Number(size_t pos);
  // Leaves the row's identity group, erasing the group when it empties.
  void LeaveGroup(const Row& row);

  std::vector<Row> rows_;  // ascending id
  ContainmentDag dag_;     // parallel to rows_
  Groups groups_;
  uint64_t stamp_ = 1;      // the current numbering
  uint32_t numbered_ = 0;  // groups numbered under stamp_
};

}  // namespace dsm

#endif  // DSM_COSTING_INCREMENTAL_CONTAINMENT_H_
