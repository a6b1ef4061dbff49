#include "plan/enumerator.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace dsm {
namespace {

// A partial plan over one connected subset of the sharing's tables, stored
// as an immutable tree node. Combining two fragments is O(1): the children
// are shared (never copied), and the flat node array the rest of the system
// consumes is materialized once per *emitted* plan instead of once per
// DP candidate.
struct Fragment;
using FragmentPtr = std::shared_ptr<const Fragment>;

struct Fragment {
  PlanNode node;  // left/right indices unset; children live in the pointers
  FragmentPtr left;
  FragmentPtr right;
  size_t size = 1;    // nodes in this subtree (for reserve at emit time)
  double cost = 0.0;  // standalone cost, used only for beam pruning
  uint64_t sig = 0;   // structural signature, used for DP-slot dedup
};

// Structural content hash of the tree rooted at (node, left, right). Same
// mixing as SharingPlan::Signature, with child signatures standing in for
// child indices: structurally identical trees collide, distinct trees do
// not (modulo hash collisions), which is exactly what the per-slot dedup
// needs without materializing the node array.
uint64_t FragmentSignature(const PlanNode& node, const FragmentPtr& left,
                           const FragmentPtr& right) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(static_cast<uint64_t>(node.type));
  mix(ViewKeyHash()(node.key));
  mix(node.server);
  mix(left == nullptr ? 0 : left->sig);
  mix(right == nullptr ? 0 : right->sig);
  return h;
}

// Flattens the fragment tree into `out` in post-order (left subtree, right
// subtree, root) — the same node ordering the old copy-per-candidate
// construction produced, so plan signatures are unchanged. Returns the
// root's index.
int MaterializeInto(const Fragment& frag, SharingPlan* out) {
  PlanNode node = frag.node;
  if (frag.left != nullptr) node.left = MaterializeInto(*frag.left, out);
  if (frag.right != nullptr) node.right = MaterializeInto(*frag.right, out);
  out->nodes.push_back(node);
  return static_cast<int>(out->nodes.size()) - 1;
}

}  // namespace

PlanEnumerator::PlanEnumerator(const Catalog* catalog, const Cluster* cluster,
                               const JoinGraph* graph, CostModel* model,
                               EnumeratorOptions options)
    : catalog_(catalog),
      cluster_(cluster),
      graph_(graph),
      model_(model),
      options_(options) {}

Result<std::vector<SharingPlan>> PlanEnumerator::EnumerateChoice(
    const Sharing& sharing, const std::vector<TableSet>& subsets,
    uint64_t pushdown) const {
  const std::vector<Predicate>& all_preds = sharing.predicates();
  std::vector<Predicate> pushed;
  for (size_t i = 0; i < all_preds.size(); ++i) {
    if ((pushdown >> i) & 1ull) pushed.push_back(all_preds[i]);
  }

  const TableSet tables = sharing.tables();
  // DP table: connected subset -> fragments.
  std::unordered_map<uint64_t, std::vector<FragmentPtr>> dp;

  // Singletons.
  for (TableId t : tables.ToVector()) {
    DSM_ASSIGN_OR_RETURN(const ServerId home, cluster_->HomeOf(t));
    auto frag = std::make_shared<Fragment>();
    frag->node.type = PlanNodeType::kLeaf;
    frag->node.base_table = t;
    frag->node.server = home;
    frag->node.key = ViewKey(TableSet::Of(t),
                             PredicatesOnTables(pushed, TableSet::Of(t)));
    frag->sig = FragmentSignature(frag->node, nullptr, nullptr);
    if (model_ != nullptr) {
      frag->cost = model_->LeafCost(t, frag->node.key, home);
    }
    dp[TableSet::Of(t).mask()].push_back(std::move(frag));
  }

  for (const TableSet subset : subsets) {
    std::vector<FragmentPtr>& slot = dp[subset.mask()];
    std::unordered_set<uint64_t> local_seen;
    const uint64_t mask = subset.mask();
    const uint64_t lowest = mask & (~mask + 1);
    // Enumerate proper submasks that contain the lowest table, so each
    // unordered split {C1, C2} is visited exactly once.
    for (uint64_t sub = (mask - 1) & mask; sub != 0;
         sub = (sub - 1) & mask) {
      if ((sub & lowest) == 0) continue;
      const uint64_t other = mask ^ sub;
      const auto it1 = dp.find(sub);
      const auto it2 = dp.find(other);
      if (it1 == dp.end() || it2 == dp.end()) continue;  // not connected
      if (!graph_->Joinable(TableSet(sub), TableSet(other))) continue;
      const ViewKey node_key(subset, PredicatesOnTables(pushed, subset));
      for (const FragmentPtr& f1 : it1->second) {
        for (const FragmentPtr& f2 : it2->second) {
          ServerId candidates[3];
          size_t num_candidates = 0;
          auto add_candidate = [&](ServerId s) {
            for (size_t i = 0; i < num_candidates; ++i) {
              if (candidates[i] == s) return;
            }
            candidates[num_candidates++] = s;
          };
          // Each join may sit on either child's server or at the
          // sharing's destination.
          add_candidate(f1->node.server);
          add_candidate(f2->node.server);
          add_candidate(sharing.destination());
          for (size_t ci = 0; ci < num_candidates; ++ci) {
            PlanNode join;
            join.type = PlanNodeType::kJoin;
            join.key = node_key;
            join.server = candidates[ci];
            const uint64_t sig = FragmentSignature(join, f1, f2);
            if (!local_seen.insert(sig).second) continue;
            auto combined = std::make_shared<Fragment>();
            combined->node = join;
            combined->left = f1;
            combined->right = f2;
            combined->size = f1->size + f2->size + 1;
            combined->sig = sig;
            if (model_ != nullptr) {
              combined->cost =
                  f1->cost + f2->cost +
                  model_->JoinCost(join.key, join.server, f1->node.key,
                                   f1->node.server, f2->node.key,
                                   f2->node.server);
            }
            slot.push_back(std::move(combined));
          }
        }
      }
    }
    // Beam pruning: keep the cheapest fragments only.
    if (options_.per_subset_cap > 0 && slot.size() > options_.per_subset_cap) {
      DSM_METRIC_COUNTER_ADD("dsm.plan.fragments_pruned",
                             slot.size() - options_.per_subset_cap);
      std::nth_element(slot.begin(),
                       slot.begin() + static_cast<std::ptrdiff_t>(
                                          options_.per_subset_cap),
                       slot.end(),
                       [](const FragmentPtr& a, const FragmentPtr& b) {
                         return a->cost < b->cost;
                       });
      slot.resize(options_.per_subset_cap);
    }
  }

  // Finalize: deliver the full result (all predicates applied) at the
  // destination server.
  const ViewKey result_key = sharing.ResultKey();
  std::vector<SharingPlan> out;
  for (const FragmentPtr& frag : dp[tables.mask()]) {
    SharingPlan plan;
    plan.nodes.reserve(frag->size + 1);
    MaterializeInto(*frag, &plan);
    const PlanNode& root = plan.nodes.back();
    if (!(root.key == result_key) || root.server != sharing.destination()) {
      PlanNode fin;
      fin.type = PlanNodeType::kFilterCopy;
      fin.key = result_key;
      fin.server = sharing.destination();
      fin.left = plan.root_index();
      plan.nodes.push_back(fin);
    }
    out.push_back(std::move(plan));
  }
  return out;
}

Status PlanEnumerator::Validate(const Sharing& sharing) const {
  const TableSet tables = sharing.tables();
  if (tables.empty()) {
    return Status::InvalidArgument("sharing has no tables");
  }
  if (!graph_->Connected(tables)) {
    return Status::InvalidArgument(
        "sharing's tables are not connected in the join graph "
        "(cross products are not supported)");
  }
  if (options_.per_subset_cap > 0 && model_ == nullptr) {
    return Status::InvalidArgument("beam pruning requires a cost model");
  }
  for (const TableId t : tables.ToVector()) {
    DSM_RETURN_IF_ERROR(cluster_->HomeOf(t).status());
  }
  return Status::OK();
}

Result<std::vector<SharingPlan>> PlanEnumerator::Enumerate(
    const Sharing& sharing) const {
  DSM_METRIC_COUNTER_ADD("dsm.plan.enumerations", 1);
  DSM_METRIC_SCOPED_LATENCY_MS("dsm.plan.enumerate_ms");
  DSM_TRACE_SPAN("plan/enumerate");
  DSM_RETURN_IF_ERROR(Validate(sharing));
  const TableSet tables = sharing.tables();
  const std::vector<Predicate>& all_preds = sharing.predicates();

  // Choices of which predicates are pushed down to the leaves; the rest are
  // applied at the root. With many predicates the exhaustive 2^p blowup is
  // avoided by considering only all-at-root and all-pushed-down.
  const size_t num_preds = all_preds.size();
  const uint64_t full_mask =
      num_preds >= 64 ? ~0ull : (1ull << num_preds) - 1ull;
  std::vector<uint64_t> pushdown_choices;
  if (!options_.predicate_placement || all_preds.empty()) {
    pushdown_choices.push_back(options_.predicate_placement ? full_mask
                                                            : 0ull);
  } else if (num_preds <= 12) {
    for (uint64_t d = 0; d <= full_mask; ++d) {
      pushdown_choices.push_back(d);
    }
  } else {
    pushdown_choices = {0ull, full_mask};
  }

  // Connected subsets in increasing size, shared by every pushdown choice
  // (predicates never change connectivity).
  std::vector<TableSet> subsets = graph_->ConnectedSubsets(tables, 2);
  std::sort(subsets.begin(), subsets.end(),
            [](TableSet a, TableSet b) { return a.size() < b.size(); });

  // Plans of every choice are merged in choice order under one global
  // dedup, stopping at the max_plans cap.
  std::vector<SharingPlan> out;
  std::unordered_set<uint64_t> seen;
  for (const uint64_t pushdown : pushdown_choices) {
    DSM_ASSIGN_OR_RETURN(std::vector<SharingPlan> plans,
                         EnumerateChoice(sharing, subsets, pushdown));
    for (SharingPlan& plan : plans) {
      if (!seen.insert(plan.Signature()).second) continue;
      out.push_back(std::move(plan));
      if (out.size() >= options_.max_plans) break;
    }
    if (out.size() >= options_.max_plans) break;
  }
  DSM_METRIC_COUNTER_ADD("dsm.plan.plans_emitted", out.size());
  return out;
}

}  // namespace dsm
