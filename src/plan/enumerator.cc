#include "plan/enumerator.h"

#include <algorithm>
#include <optional>
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
//
// A join's price depends only on its three keys and three servers, and a
// split fixes the keys, so each split prices one (left server, right
// server) pair of its child slots once and every other fragment pair on
// the same servers reuses the answer. Only exact repeat calls are
// skipped, so the model sees its first calls in the per-fragment order.
struct PlanEnumerator::SpaceBuilder {
  CostModel* model = nullptr;
  std::vector<PlanSpace::Fragment> fragments;
  // Parallel to fragments: the standalone cost of each fragment's subtree,
  // summed as the DP always has (children, then the op); used only for
  // beam pruning.
  std::vector<double> beam_cost;
  // Parallel to fragments: the index of the fragment's server in its
  // slot's `slot_servers` list.
  std::vector<int> server_rank;
  std::vector<ViewKey> slot_keys;
  std::vector<std::vector<int>> slot_frags;          // per slot: fragments
  std::vector<std::vector<ServerId>> slot_servers;   // per slot: distinct
  // DP slots by key. The final filter/copies' slot is not among them: its
  // key may equal a DP slot's, which a later choice must still build.
  std::unordered_map<ViewKey, int, ViewKeyHash> slot_ids;

  // The DP slot of `key`, and whether it is new (empty).
  std::pair<int, bool> DpSlot(const ViewKey& key) {
    const auto [it, inserted] =
        slot_ids.try_emplace(key, static_cast<int>(slot_keys.size()));
    if (inserted) NewSlot(key);
    return {it->second, inserted};
  }

  int NewSlot(ViewKey key) {
    slot_keys.push_back(std::move(key));
    slot_frags.emplace_back();
    slot_servers.emplace_back();
    return static_cast<int>(slot_keys.size()) - 1;
  }

  // Appends `frag`, priced; `beam` is its subtree's standalone cost.
  int Add(const PlanSpace::Fragment& frag, double beam) {
    fragments.push_back(frag);
    beam_cost.push_back(beam);
    server_rank.push_back(0);
    return static_cast<int>(fragments.size()) - 1;
  }

  // Ranks the servers of a finished slot's fragments.
  void RankServers(int slot) {
    std::vector<ServerId>& servers = slot_servers[static_cast<size_t>(slot)];
    for (const int f : slot_frags[static_cast<size_t>(slot)]) {
      const ServerId s = fragments[static_cast<size_t>(f)].server;
      const auto it = std::find(servers.begin(), servers.end(), s);
      server_rank[static_cast<size_t>(f)] =
          static_cast<int>(it - servers.begin());
      if (it == servers.end()) servers.push_back(s);
    }
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
                                       int* full) const {
  const std::vector<Predicate>& all_preds = sharing.predicates();
  std::vector<Predicate> pushed;
  for (size_t i = 0; i < all_preds.size(); ++i) {
    if ((pushdown >> i) & 1ull) pushed.push_back(all_preds[i]);
  }
  CostModel* model = builder->model;

  const TableSet tables = sharing.tables();
  // DP table: connected subset -> its slot in builder->slot_frags.
  std::unordered_map<uint64_t, int> dp;

  // Singletons.
  for (TableId t : tables.ToVector()) {
    DSM_ASSIGN_OR_RETURN(const ServerId home, cluster_->HomeOf(t));
    const ViewKey key(TableSet::Of(t),
                      PredicatesOnTables(pushed, TableSet::Of(t)));
    const auto [slot, inserted] = builder->DpSlot(key);
    dp[TableSet::Of(t).mask()] = slot;
    if (!inserted) continue;
    // NodeCost and NodeLoad of a leaf.
    PlanSpace::Fragment leaf;
    leaf.type = PlanNodeType::kLeaf;
    leaf.base_table = t;
    leaf.server = home;
    leaf.slot = slot;
    leaf.op_cost = model->LeafCost(t, key, home);
    leaf.load = key.predicates.empty()
                    ? 0.0
                    : model->DeltaRate(ViewKey(TableSet::Of(t)));
    builder->slot_frags[static_cast<size_t>(slot)].push_back(
        builder->Add(leaf, leaf.op_cost));
    builder->RankServers(slot);
  }

  // Per (left server, right server) of one split: the join's candidate
  // servers and their op costs, once priced.
  struct PairPrice {
    bool priced = false;
    size_t num_candidates = 0;
    ServerId candidates[3];
    double op_cost[3];
  };
  std::vector<PairPrice> prices;

  for (const TableSet subset : subsets) {
    const uint64_t mask = subset.mask();
    const auto [slot, inserted] =
        builder->DpSlot(ViewKey(subset, PredicatesOnTables(pushed, subset)));
    dp[mask] = slot;
    if (!inserted) continue;
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
      const auto ls = static_cast<size_t>(it1->second);
      const auto rs = static_cast<size_t>(it2->second);
      const ViewKey& out_key = builder->slot_keys[static_cast<size_t>(slot)];
      const ViewKey& left_key = builder->slot_keys[ls];
      const ViewKey& right_key = builder->slot_keys[rs];
      const std::vector<ServerId>& left_servers = builder->slot_servers[ls];
      const std::vector<ServerId>& right_servers = builder->slot_servers[rs];
      const size_t num_right_servers = right_servers.size();
      prices.assign(left_servers.size() * num_right_servers, PairPrice{});
      // NodeLoad of every join of the split: its children's delta rates.
      double load = 0.0;
      bool load_priced = false;
      for (const int f1 : builder->slot_frags[ls]) {
        const auto r1 =
            static_cast<size_t>(builder->server_rank[static_cast<size_t>(f1)]);
        for (const int f2 : builder->slot_frags[rs]) {
          const auto r2 = static_cast<size_t>(
              builder->server_rank[static_cast<size_t>(f2)]);
          PairPrice& price = prices[r1 * num_right_servers + r2];
          if (!price.priced) {
            const ServerId left_server = left_servers[r1];
            const ServerId right_server = right_servers[r2];
            auto add_candidate = [&price](ServerId s) {
              for (size_t i = 0; i < price.num_candidates; ++i) {
                if (price.candidates[i] == s) return;
              }
              price.candidates[price.num_candidates++] = s;
            };
            // Each join may sit on either child's server or at the
            // sharing's destination.
            add_candidate(left_server);
            add_candidate(right_server);
            add_candidate(sharing.destination());
            for (size_t ci = 0; ci < price.num_candidates; ++ci) {
              price.op_cost[ci] =
                  model->JoinCost(out_key, price.candidates[ci], left_key,
                                  left_server, right_key, right_server);
              if (!load_priced) {
                load = model->DeltaRate(left_key) + model->DeltaRate(right_key);
                load_priced = true;
              }
            }
            price.priced = true;
          }
          const double children =
              builder->beam_cost[static_cast<size_t>(f1)] +
              builder->beam_cost[static_cast<size_t>(f2)];
          for (size_t ci = 0; ci < price.num_candidates; ++ci) {
            PlanSpace::Fragment join;
            join.type = PlanNodeType::kJoin;
            join.server = price.candidates[ci];
            join.left = f1;
            join.right = f2;
            join.slot = slot;
            join.op_cost = price.op_cost[ci];
            join.load = load;
            builder->slot_frags[static_cast<size_t>(slot)].push_back(
                builder->Add(join, children + join.op_cost));
          }
        }
      }
    }
    // Beam pruning: keep the cheapest fragments only.
    std::vector<int>& frags = builder->slot_frags[static_cast<size_t>(slot)];
    if (options_.per_subset_cap > 0 &&
        frags.size() > options_.per_subset_cap) {
      DSM_METRIC_COUNTER_ADD("dsm.plan.fragments_pruned",
                             frags.size() - options_.per_subset_cap);
      const std::vector<double>& cost = builder->beam_cost;
      std::nth_element(frags.begin(),
                       frags.begin() + static_cast<std::ptrdiff_t>(
                                           options_.per_subset_cap),
                       frags.end(), [&cost](int a, int b) {
                         return cost[static_cast<size_t>(a)] <
                                cost[static_cast<size_t>(b)];
                       });
      frags.resize(options_.per_subset_cap);
    }
    builder->RankServers(slot);
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
  const ServerId destination = sharing.destination();
  int copy_slot = -1;  // the final filter/copies' slot, once needed
  std::vector<int> roots;
  std::vector<int> emitted;
  // Per server of the full slot: a final filter/copy's op cost and load.
  std::vector<std::optional<std::pair<double, double>>> copy_prices;
  for (const uint64_t pushdown : pushdown_choices) {
    int full = -1;
    DSM_RETURN_IF_ERROR(
        EnumerateChoice(sharing, subsets, pushdown, &builder, &full));
    if (std::find(emitted.begin(), emitted.end(), full) != emitted.end()) {
      continue;
    }
    emitted.push_back(full);
    const auto fs = static_cast<size_t>(full);
    const bool is_result = builder.slot_keys[fs] == result_key;
    copy_prices.assign(builder.slot_servers[fs].size(), std::nullopt);
    for (const int top : builder.slot_frags[fs]) {
      const ServerId top_server =
          builder.fragments[static_cast<size_t>(top)].server;
      int root = top;
      if (!is_result || top_server != destination) {
        auto& price = copy_prices[static_cast<size_t>(
            builder.server_rank[static_cast<size_t>(top)])];
        if (!price.has_value()) {
          // NodeCost then NodeLoad of the filter/copy. The key is read by
          // index: NewSlot below may move slot_keys.
          const ViewKey& top_key = builder.slot_keys[fs];
          const double op = model_->FilterCopyCost(top_key, top_server,
                                                   result_key, destination);
          price.emplace(op, model_->DeltaRate(top_key));
        }
        if (copy_slot < 0) copy_slot = builder.NewSlot(result_key);
        PlanSpace::Fragment fin;
        fin.type = PlanNodeType::kFilterCopy;
        fin.server = destination;
        fin.left = top;
        fin.slot = copy_slot;
        fin.op_cost = price->first;
        fin.load = price->second;
        root = builder.Add(fin, fin.op_cost);
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
  space.slot_keys_ = std::move(builder.slot_keys);
  space.roots_ = std::move(roots);
  return space;
}

}  // namespace dsm
