#include "plan/enumerator.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace dsm {
namespace {

// boost::hash_combine-style step shared by both signatures below.
void Mix(uint64_t* h, uint64_t v) {
  *h ^= v + 0x9e3779b97f4a7c15ULL + (*h << 6) + (*h >> 2);
}

// Structural hash of a tree: its root's type, key hash and server over
// children with signatures `left_sig` and `right_sig` (0 where absent).
// The DP drops a candidate whose signature an earlier one in its slot
// already has.
uint64_t FragmentSignature(PlanNodeType type, uint64_t key_hash,
                           ServerId server, uint64_t left_sig,
                           uint64_t right_sig) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  Mix(&h, static_cast<uint64_t>(type));
  Mix(&h, key_hash);
  Mix(&h, server);
  Mix(&h, left_sig);
  Mix(&h, right_sig);
  return h;
}

// One node's step of SharingPlan::Signature.
void MixNode(uint64_t* h, PlanNodeType type, uint64_t key_hash,
             ServerId server, int left, int right) {
  Mix(h, static_cast<uint64_t>(type));
  Mix(h, key_hash);
  Mix(h, server);
  Mix(h, static_cast<uint64_t>(static_cast<int64_t>(left)) * 31 +
             static_cast<uint64_t>(static_cast<int64_t>(right)));
}

// A set of 64-bit signatures: open addressing with linear probing,
// emptied in O(1) by bumping a generation. Each DP slot and each
// enumeration dedups ~10^3 signatures; std::unordered_set's per-insert
// node allocation cost more than the rest of the dedup.
class SignatureSet {
 public:
  void Clear() {
    ++generation_;
    size_ = 0;
  }

  // False if `sig` is already in the set.
  bool Insert(uint64_t sig) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = Spread(sig) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.generation != generation_) {
        slot = Slot{sig, generation_};
        ++size_;
        return true;
      }
      if (slot.sig == sig) return false;
    }
  }

 private:
  struct Slot {
    uint64_t sig = 0;
    uint32_t generation = 0;
  };

  // The signatures mix small values weakly, so their low bits are
  // re-spread (splitmix64's finalizer) before indexing.
  static uint64_t Spread(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<size_t>(16, 2 * old.size()), Slot{});
    const uint32_t live = generation_;
    generation_ = 1;
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.generation == live) Insert(slot.sig);
    }
  }

  std::vector<Slot> slots_;
  uint32_t generation_ = 1;
  size_t size_ = 0;
};

}  // namespace

// The fragment array under construction, and the DP slots built so far.
// A slot (the fragments over one connected subset) depends only on the
// subset's view key: its pushed-down predicates fix those of every
// smaller subset. So a slot two pushdown choices share (e.g. over tables
// no predicate touches) is built, and its fragments priced, once.
struct PlanEnumerator::SpaceBuilder {
  CostModel* model = nullptr;
  // What the DP needs of a fragment besides the fragment itself.
  struct Info {
    uint64_t sig = 0;       // FragmentSignature
    uint64_t key_hash = 0;  // ViewKeyHash of its key
    // Standalone cost of its subtree, summed as the DP always has
    // (children, then the op); used only for beam pruning.
    double beam_cost = 0.0;
  };
  std::vector<PlanSpace::Fragment> fragments;
  std::vector<Info> info;  // parallel to fragments
  std::unordered_map<ViewKey, std::vector<int>, ViewKeyHash> slots;
  SignatureSet slot_seen;  // the DP slot being built
  SignatureSet plan_seen;  // every plan emitted so far

  // Appends `node` (children as fragment ids), priced; returns its id.
  int Add(PlanNode node, uint64_t sig, uint64_t key_hash) {
    const auto child = [this](int id) {
      return id < 0 ? nullptr : &fragments[static_cast<size_t>(id)].node;
    };
    PlanSpace::Fragment frag;
    frag.op_cost = NodeCost(node, child(node.left), child(node.right), model);
    frag.load = NodeLoad(node, child(node.left), child(node.right), model);
    double beam_cost = frag.op_cost;
    if (node.is_join()) {
      beam_cost = info[static_cast<size_t>(node.left)].beam_cost +
                  info[static_cast<size_t>(node.right)].beam_cost +
                  frag.op_cost;
    }
    frag.node = std::move(node);
    fragments.push_back(std::move(frag));
    info.push_back(Info{sig, key_hash, beam_cost});
    return static_cast<int>(fragments.size()) - 1;
  }

  // Mixes fragment `id`'s tree into `h` as SharingPlan::Signature does
  // over its materialized post-order; returns the node's index there.
  int MixPlan(int id, uint64_t* h, int* num_nodes) const {
    const PlanNode& node = fragments[static_cast<size_t>(id)].node;
    const int left = node.left >= 0 ? MixPlan(node.left, h, num_nodes) : -1;
    const int right =
        node.right >= 0 ? MixPlan(node.right, h, num_nodes) : -1;
    MixNode(h, node.type, info[static_cast<size_t>(id)].key_hash, node.server,
            left, right);
    return (*num_nodes)++;
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
  const ViewKeyHash hash;
  // DP table: connected subset -> its slot in builder->slots.
  std::unordered_map<uint64_t, const std::vector<int>*> dp;

  // Singletons.
  for (TableId t : tables.ToVector()) {
    DSM_ASSIGN_OR_RETURN(const ServerId home, cluster_->HomeOf(t));
    ViewKey key(TableSet::Of(t), PredicatesOnTables(pushed, TableSet::Of(t)));
    const auto [slot, inserted] = builder->slots.try_emplace(key);
    dp[TableSet::Of(t).mask()] = &slot->second;
    if (!inserted) continue;
    const uint64_t key_hash = hash(key);
    PlanNode leaf;
    leaf.type = PlanNodeType::kLeaf;
    leaf.base_table = t;
    leaf.server = home;
    leaf.key = std::move(key);
    slot->second.push_back(builder->Add(
        std::move(leaf),
        FragmentSignature(PlanNodeType::kLeaf, key_hash, home, 0, 0),
        key_hash));
  }

  for (const TableSet subset : subsets) {
    const uint64_t mask = subset.mask();
    const ViewKey node_key(subset, PredicatesOnTables(pushed, subset));
    const auto [slot_it, inserted] = builder->slots.try_emplace(node_key);
    dp[mask] = &slot_it->second;
    if (!inserted) continue;
    std::vector<int>& slot = slot_it->second;
    const uint64_t key_hash = hash(node_key);
    builder->slot_seen.Clear();
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
            const uint64_t sig = FragmentSignature(
                PlanNodeType::kJoin, key_hash, candidates[ci],
                builder->info[static_cast<size_t>(f1)].sig,
                builder->info[static_cast<size_t>(f2)].sig);
            if (!builder->slot_seen.Insert(sig)) continue;
            PlanNode join;
            join.type = PlanNodeType::kJoin;
            join.key = node_key;
            join.server = candidates[ci];
            join.left = f1;
            join.right = f2;
            slot.push_back(builder->Add(std::move(join), sig, key_hash));
          }
        }
      }
    }
    // Beam pruning: keep the cheapest fragments only.
    if (options_.per_subset_cap > 0 && slot.size() > options_.per_subset_cap) {
      DSM_METRIC_COUNTER_ADD("dsm.plan.fragments_pruned",
                             slot.size() - options_.per_subset_cap);
      const std::vector<SpaceBuilder::Info>& info = builder->info;
      std::nth_element(slot.begin(),
                       slot.begin() + static_cast<std::ptrdiff_t>(
                                          options_.per_subset_cap),
                       slot.end(), [&info](int a, int b) {
                         return info[static_cast<size_t>(a)].beam_cost <
                                info[static_cast<size_t>(b)].beam_cost;
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

  // Plans of every choice are merged in choice order under one dedup by
  // SharingPlan::Signature (computed without a node array), stopping at
  // the max_plans cap. Each plan delivers the full result (all predicates
  // applied) at the destination server, through a final filter/copy where
  // its top join does not already.
  SpaceBuilder builder;
  builder.model = model_;
  const ViewKey result_key = sharing.ResultKey();
  const uint64_t result_key_hash = ViewKeyHash()(result_key);
  std::vector<int> roots;
  for (const uint64_t pushdown : pushdown_choices) {
    const std::vector<int>* full = nullptr;
    DSM_RETURN_IF_ERROR(
        EnumerateChoice(sharing, subsets, pushdown, &builder, &full));
    for (const int top : *full) {
      const PlanNode& node = builder.fragments[static_cast<size_t>(top)].node;
      const bool needs_fin = !(node.key == result_key) ||
                             node.server != sharing.destination();
      uint64_t sig = 0x9e3779b97f4a7c15ULL;
      int num_nodes = 0;
      const int top_index = builder.MixPlan(top, &sig, &num_nodes);
      if (needs_fin) {
        MixNode(&sig, PlanNodeType::kFilterCopy, result_key_hash,
                sharing.destination(), top_index, -1);
      }
      if (!builder.plan_seen.Insert(sig)) continue;
      int root = top;
      if (needs_fin) {
        PlanNode fin;
        fin.type = PlanNodeType::kFilterCopy;
        fin.key = result_key;
        fin.server = sharing.destination();
        fin.left = top;
        root = builder.Add(
            std::move(fin),
            FragmentSignature(PlanNodeType::kFilterCopy, result_key_hash,
                              sharing.destination(),
                              builder.info[static_cast<size_t>(top)].sig, 0),
            result_key_hash);
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
