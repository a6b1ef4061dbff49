#include "plan/enumerator.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace dsm {

// The fragment array under construction, and the DP slots built so far.
// A slot (the fragments over one connected subset) depends only on the
// subset's view key: its pushed-down predicates fix those of every
// smaller subset. So a slot two pushdown choices share (e.g. over tables
// no predicate touches) is built, and its fragments priced, once.
//
// The fragments of one slot are distinct trees, so the DP never dedups:
// a slot's candidates are distinct (split, left fragment, right fragment,
// server) tuples, since each unordered split is visited once, the
// fragments of each child slot are distinct trees (by induction), and
// the candidate servers of one pair are distinct.
struct PlanEnumerator::SpaceBuilder {
  CostModel* model = nullptr;
  std::vector<PlanSpace::Fragment> fragments;
  // Parallel to fragments: the standalone cost of each fragment's subtree,
  // summed as the DP always has (children, then the op); used only for
  // beam pruning.
  std::vector<double> beam_cost;
  std::unordered_map<ViewKey, std::vector<int>, ViewKeyHash> slots;

  // Appends `node` (children as fragment ids), priced; returns its id.
  int Add(PlanNode node) {
    const auto child = [this](int id) {
      return id < 0 ? nullptr : &fragments[static_cast<size_t>(id)].node;
    };
    PlanSpace::Fragment frag;
    frag.op_cost = NodeCost(node, child(node.left), child(node.right), model);
    frag.load = NodeLoad(node, child(node.left), child(node.right), model);
    double cost = frag.op_cost;
    if (node.is_join()) {
      cost = beam_cost[static_cast<size_t>(node.left)] +
             beam_cost[static_cast<size_t>(node.right)] + frag.op_cost;
    }
    frag.node = std::move(node);
    fragments.push_back(std::move(frag));
    beam_cost.push_back(cost);
    return static_cast<int>(fragments.size()) - 1;
  }
};

PlanEnumerator::PlanEnumerator(const Catalog* catalog, const Cluster* cluster,
                               const JoinGraph* graph, CostModel* model,
                               EnumeratorOptions options)
    : catalog_(catalog),
      cluster_(cluster),
      graph_(graph),
      model_(model),
      options_(options) {}

Status PlanEnumerator::EnumerateChoice(const Sharing& sharing,
                                       const std::vector<TableSet>& subsets,
                                       uint64_t pushdown,
                                       SpaceBuilder* builder,
                                       const std::vector<int>** full) const {
  const std::vector<Predicate>& all_preds = sharing.predicates();
  std::vector<Predicate> pushed;
  for (size_t i = 0; i < all_preds.size(); ++i) {
    if ((pushdown >> i) & 1ull) pushed.push_back(all_preds[i]);
  }

  const TableSet tables = sharing.tables();
  // DP table: connected subset -> its slot in builder->slots.
  std::unordered_map<uint64_t, const std::vector<int>*> dp;

  // Singletons.
  for (TableId t : tables.ToVector()) {
    DSM_ASSIGN_OR_RETURN(const ServerId home, cluster_->HomeOf(t));
    ViewKey key(TableSet::Of(t), PredicatesOnTables(pushed, TableSet::Of(t)));
    const auto [slot, inserted] = builder->slots.try_emplace(key);
    dp[TableSet::Of(t).mask()] = &slot->second;
    if (!inserted) continue;
    PlanNode leaf;
    leaf.type = PlanNodeType::kLeaf;
    leaf.base_table = t;
    leaf.server = home;
    leaf.key = std::move(key);
    slot->second.push_back(builder->Add(std::move(leaf)));
  }

  for (const TableSet subset : subsets) {
    const uint64_t mask = subset.mask();
    const ViewKey node_key(subset, PredicatesOnTables(pushed, subset));
    const auto [slot_it, inserted] = builder->slots.try_emplace(node_key);
    dp[mask] = &slot_it->second;
    if (!inserted) continue;
    std::vector<int>& slot = slot_it->second;
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
      for (const int f1 : *it1->second) {
        for (const int f2 : *it2->second) {
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
          add_candidate(builder->fragments[static_cast<size_t>(f1)]
                            .node.server);
          add_candidate(builder->fragments[static_cast<size_t>(f2)]
                            .node.server);
          add_candidate(sharing.destination());
          for (size_t ci = 0; ci < num_candidates; ++ci) {
            PlanNode join;
            join.type = PlanNodeType::kJoin;
            join.key = node_key;
            join.server = candidates[ci];
            join.left = f1;
            join.right = f2;
            slot.push_back(builder->Add(std::move(join)));
          }
        }
      }
    }
    // Beam pruning: keep the cheapest fragments only.
    if (options_.per_subset_cap > 0 && slot.size() > options_.per_subset_cap) {
      DSM_METRIC_COUNTER_ADD("dsm.plan.fragments_pruned",
                             slot.size() - options_.per_subset_cap);
      const std::vector<double>& cost = builder->beam_cost;
      std::nth_element(slot.begin(),
                       slot.begin() + static_cast<std::ptrdiff_t>(
                                          options_.per_subset_cap),
                       slot.end(), [&cost](int a, int b) {
                         return cost[static_cast<size_t>(a)] <
                                cost[static_cast<size_t>(b)];
                       });
      slot.resize(options_.per_subset_cap);
    }
  }
  *full = dp[tables.mask()];
  return Status::OK();
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
  if (model_ == nullptr) {
    return Status::InvalidArgument("plan enumeration requires a cost model");
  }
  for (const TableId t : tables.ToVector()) {
    DSM_RETURN_IF_ERROR(cluster_->HomeOf(t).status());
  }
  return Status::OK();
}

Result<PlanSpace> PlanEnumerator::Enumerate(const Sharing& sharing) const {
  DSM_METRIC_COUNTER_ADD("dsm.plan.enumerations", 1);
  DSM_METRIC_SCOPED_LATENCY_MS("dsm.plan.enumerate_ms");
  DSM_TRACE_SPAN("plan/enumerate");
  DSM_RETURN_IF_ERROR(Validate(sharing));
  const TableSet tables = sharing.tables();

  // Choices of which predicates are pushed down to the leaves; the rest are
  // applied at the root. With many predicates the exhaustive 2^p blowup is
  // avoided by considering only all-at-root and all-pushed-down.
  const size_t num_preds = sharing.predicates().size();
  const uint64_t full_mask =
      num_preds >= 64 ? ~0ull : (1ull << num_preds) - 1ull;
  std::vector<uint64_t> pushdown_choices;
  if (num_preds <= 12) {
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

  // Plans of every choice are merged in choice order, stopping at the
  // max_plans cap. Each plan delivers the full result (all predicates
  // applied) at the destination server, through a final filter/copy where
  // its top join does not already. Plans of two choices differ at their
  // top fragment's key unless both choices resolve to the same slot over
  // all the tables (e.g. a predicate on a table outside the sharing), so a
  // choice whose full slot was already emitted adds nothing.
  SpaceBuilder builder;
  builder.model = model_;
  const ViewKey& result_key = sharing.ResultKey();
  std::vector<int> roots;
  std::vector<const std::vector<int>*> emitted;
  for (const uint64_t pushdown : pushdown_choices) {
    const std::vector<int>* full = nullptr;
    DSM_RETURN_IF_ERROR(
        EnumerateChoice(sharing, subsets, pushdown, &builder, &full));
    if (std::find(emitted.begin(), emitted.end(), full) != emitted.end()) {
      continue;
    }
    emitted.push_back(full);
    for (const int top : *full) {
      const PlanNode& node = builder.fragments[static_cast<size_t>(top)].node;
      int root = top;
      if (!(node.key == result_key) || node.server != sharing.destination()) {
        PlanNode fin;
        fin.type = PlanNodeType::kFilterCopy;
        fin.key = result_key;
        fin.server = sharing.destination();
        fin.left = top;
        root = builder.Add(std::move(fin));
      }
      roots.push_back(root);
      if (roots.size() >= options_.max_plans) break;
    }
    if (roots.size() >= options_.max_plans) break;
  }
  DSM_METRIC_COUNTER_ADD("dsm.plan.fragments", builder.fragments.size());
  DSM_METRIC_COUNTER_ADD("dsm.plan.plans_emitted", roots.size());
  PlanSpace space;
  space.fragments_ = std::move(builder.fragments);
  space.roots_ = std::move(roots);
  return space;
}

}  // namespace dsm
