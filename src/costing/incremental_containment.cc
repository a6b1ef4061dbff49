#include "costing/incremental_containment.h"

#include <algorithm>
#include <cassert>

#include "expr/predicate.h"
#include "obs/metrics.h"

namespace dsm {

namespace {
// Must match BuildContainmentDag's LPC comparison tolerance exactly: the
// incremental index is required to reproduce the scratch DAG bit-for-bit.
constexpr double kLpcTol = 1e-12;
}  // namespace

void IncrementalContainmentIndex::LeaveGroup(const Row& row) {
  if (--row.group->second.members == 0) groups_.erase(row.group->first);
}

void IncrementalContainmentIndex::Number(size_t pos) {
  Group& group = rows_[pos].group->second;
  if (group.stamp != stamp_) {
    group.stamp = stamp_;
    group.number = numbered_++;
  }
  dag_.identity_group[pos] = group.number;
}

void IncrementalContainmentIndex::IndexArrival(size_t pos,
                                               const ViewKey& query) {
  Row& m = rows_[pos];
  m.table_mask = query.tables.mask();
  m.pred_sig = PredicateSignature(query.predicates);
  m.pred_count = query.predicates.size();

  // Identity group: that of the rows with an equal query, else a new one.
  const auto group = groups_.try_emplace(query).first;
  ++group->second.members;
  m.group = &*group;

  // Containment edges against every linked row, in both directions.
  // b.Subsumes(a) needs b's predicates to be a subset of a's, so a
  // directed pair is refuted without the exact check when the table masks
  // differ, the would-be container has more predicates, or its signature
  // bits are not a subset of the containee's. Rows are visited in
  // position order, so the arrival's own container list comes out sorted.
  const int me = static_cast<int>(pos);
  std::vector<int>& mine = dag_.containers[pos];
  uint64_t compared = 0;
  uint64_t skipped = 0;
  for (size_t q = 0; q < rows_.size(); ++q) {
    const Row& om = rows_[q];
    if (om.pending || om.group == m.group) continue;
    const ViewKey& other = om.group->first;
    if (om.table_mask != m.table_mask) {
      skipped += 2;
      continue;
    }
    if (om.pred_count <= m.pred_count &&
        (om.pred_sig & ~m.pred_sig) == 0) {
      ++compared;
      if (other.Subsumes(query) && m.lpc <= om.lpc + kLpcTol) {
        mine.push_back(static_cast<int>(q));
      }
    } else {
      ++skipped;
    }
    if (m.pred_count <= om.pred_count &&
        (m.pred_sig & ~om.pred_sig) == 0) {
      ++compared;
      if (query.Subsumes(other) && om.lpc <= m.lpc + kLpcTol) {
        std::vector<int>& theirs = dag_.containers[q];
        theirs.insert(std::upper_bound(theirs.begin(), theirs.end(), me),
                      me);
      }
    } else {
      ++skipped;
    }
  }
  m.pending = false;
  DSM_METRIC_COUNTER_ADD("dsm.costing.dag_pairs_compared", compared);
  DSM_METRIC_COUNTER_ADD("dsm.costing.dag_pairs_skipped", skipped);
}

void IncrementalContainmentIndex::Merge(const std::vector<SharingId>& ids,
                                        const std::vector<double>& lpc) {
  const size_t n = ids.size();
  std::vector<Row> rows;
  rows.reserve(n);
  std::vector<std::vector<int>> containers(n);
  std::vector<int> moved_to(rows_.size(), -1);  // old position -> new
  size_t r = 0;
  for (size_t i = 0; i < n; ++i) {
    for (; r < rows_.size() && rows_[r].id <= ids[i]; ++r) {
      if (rows_[r].id == ids[i] && rows_[r].lpc == lpc[i]) break;
      LeaveGroup(rows_[r]);
    }
    if (r < rows_.size() && rows_[r].id == ids[i]) {
      moved_to[r] = static_cast<int>(i);
      rows.push_back(rows_[r]);
      containers[i] = std::move(dag_.containers[r]);
      ++r;
      continue;
    }
    Row arrival;
    arrival.id = ids[i];
    arrival.lpc = lpc[i];
    arrival.pending = true;
    rows.push_back(arrival);
  }
  for (; r < rows_.size(); ++r) LeaveGroup(rows_[r]);
  rows_ = std::move(rows);
  dag_.containers = std::move(containers);

  for (std::vector<int>& c : dag_.containers) {
    size_t kept = 0;
    for (const int old : c) {
      const int now = moved_to[static_cast<size_t>(old)];
      if (now >= 0) c[kept++] = now;
    }
    c.resize(kept);
  }

  dag_.identity_group.resize(n);
  ++stamp_;
  numbered_ = 0;
}

const ContainmentDag& IncrementalContainmentIndex::Update(
    const std::vector<SharingId>& ids, const QueryRefs& queries,
    const std::vector<double>& lpc) {
  assert(ids.size() == queries.size() && ids.size() == lpc.size());
  assert(std::is_sorted(ids.begin(), ids.end()));
  const size_t n = ids.size();

  Merge(ids, lpc);

  // Link arrivals in id order, each against every row linked before it,
  // so each new pair is compared once.
  for (size_t i = 0; i < n; ++i) {
    if (rows_[i].pending) IndexArrival(i, queries[i]);
  }
  // Identity groups are numbered densely by first appearance, matching the
  // scratch build's group numbering; container lists are ascending
  // positions, matching its j-ascending scan.
  for (size_t i = 0; i < n; ++i) Number(i);
  return dag_;
}

void IncrementalContainmentIndex::Reset() {
  rows_.clear();
  dag_ = ContainmentDag();
  groups_.clear();
  numbered_ = 0;
}

}  // namespace dsm
