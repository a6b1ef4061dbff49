#include "costing/incremental_containment.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "expr/predicate.h"
#include "obs/metrics.h"

namespace dsm {

namespace {
// Must match BuildContainmentDag's LPC comparison tolerance exactly: the
// incremental index is required to reproduce the scratch DAG bit-for-bit.
constexpr double kLpcTol = 1e-12;
}  // namespace

void IncrementalContainmentIndex::AddMember(SharingId id,
                                            const ViewKey& query,
                                            double lpc) {
  Member m;
  m.lpc = lpc;
  m.table_mask = query.tables.mask();
  m.pred_sig = PredicateSignature(query.predicates);
  m.pred_count = query.predicates.size();

  // Identity group: that of the members with an equal query, else a new one.
  const auto group = groups_.try_emplace(query, 0).first;
  ++group->second;
  m.group = &*group;

  // Containment edges against every existing member, in both directions.
  // b.Subsumes(a) needs b's predicates to be a subset of a's, so a
  // directed pair is refuted without the exact check when the table masks
  // differ, the would-be container has more predicates, or its signature
  // bits are not a subset of the containee's.
  uint64_t compared = 0;
  uint64_t skipped = 0;
  for (auto& [oid, om] : members_) {
    if (om.group == m.group) continue;
    const ViewKey& other = om.group->first;
    if (om.table_mask != m.table_mask) {
      skipped += 2;
      continue;
    }
    if (om.pred_count <= m.pred_count &&
        (om.pred_sig & ~m.pred_sig) == 0) {
      ++compared;
      if (other.Subsumes(query) && m.lpc <= om.lpc + kLpcTol) {
        m.containers.push_back(oid);
      }
    } else {
      ++skipped;
    }
    if (m.pred_count <= om.pred_count &&
        (m.pred_sig & ~om.pred_sig) == 0) {
      ++compared;
      if (query.Subsumes(other) && om.lpc <= m.lpc + kLpcTol) {
        om.containers.push_back(id);
      }
    } else {
      ++skipped;
    }
  }
  DSM_METRIC_COUNTER_ADD("dsm.costing.dag_pairs_compared", compared);
  DSM_METRIC_COUNTER_ADD("dsm.costing.dag_pairs_skipped", skipped);

  members_.emplace(id, std::move(m));
}

void IncrementalContainmentIndex::RemoveMembers(
    const std::vector<SharingId>& removed) {
  if (removed.empty()) return;
  const std::unordered_set<SharingId> gone(removed.begin(), removed.end());
  for (const SharingId id : removed) {
    const auto it = members_.find(id);
    if (it == members_.end()) continue;
    const auto group = groups_.find(it->second.group->first);
    if (--group->second == 0) groups_.erase(group);
    members_.erase(it);
  }
  for (auto& [oid, om] : members_) {
    auto& c = om.containers;
    c.erase(std::remove_if(c.begin(), c.end(),
                           [&](SharingId x) { return gone.count(x) > 0; }),
            c.end());
  }
}

ContainmentDag IncrementalContainmentIndex::Update(
    const std::vector<SharingId>& ids, const QueryRefs& queries,
    const std::vector<double>& lpc) {
  assert(ids.size() == queries.size() && ids.size() == lpc.size());
  const size_t n = ids.size();

  std::unordered_map<SharingId, size_t> pos;
  pos.reserve(n);
  for (size_t i = 0; i < n; ++i) pos.emplace(ids[i], i);

  // Drop members that left the population — and, defensively, members
  // whose LPC changed since they were indexed (LPCs are memoized upstream,
  // so this is a re-add guard, not a steady-state path).
  std::vector<SharingId> removed;
  for (const auto& [id, m] : members_) {
    const auto it = pos.find(id);
    if (it == pos.end() || m.lpc != lpc[it->second]) removed.push_back(id);
  }
  RemoveMembers(removed);

  // Index arrivals in input order so emitted edge sets match the scratch
  // build's deterministic order.
  for (size_t i = 0; i < n; ++i) {
    if (members_.find(ids[i]) == members_.end()) {
      AddMember(ids[i], queries[i], lpc[i]);
    }
  }

  // Emit in input order. Identity groups are numbered densely by first
  // appearance, matching the scratch build's group numbering; edge
  // lists are translated to indices and sorted ascending, matching the
  // scratch build's j-ascending scan.
  ContainmentDag dag;
  dag.identity_group.assign(n, 0);
  dag.containers.assign(n, {});
  std::unordered_map<const Groups::value_type*, uint32_t> dense;
  dense.reserve(n);
  uint32_t next_dense = 0;
  for (size_t i = 0; i < n; ++i) {
    const Member& m = members_.at(ids[i]);
    const auto [it, inserted] = dense.emplace(m.group, next_dense);
    if (inserted) ++next_dense;
    dag.identity_group[i] = it->second;
    auto& out = dag.containers[i];
    out.reserve(m.containers.size());
    for (const SharingId c : m.containers) {
      const auto p = pos.find(c);
      if (p != pos.end()) out.push_back(static_cast<int>(p->second));
    }
    std::sort(out.begin(), out.end());
  }
  return dag;
}

void IncrementalContainmentIndex::Reset() {
  members_.clear();
  groups_.clear();
}

}  // namespace dsm
