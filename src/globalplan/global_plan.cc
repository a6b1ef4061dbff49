#include "globalplan/global_plan.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <utility>

#include "obs/metrics.h"

namespace dsm {
namespace {

// Relative tolerance of the reuse tie-break: a source must be cheaper than
// the best so far by more than this to replace it, so near-ties keep the
// earliest candidate regardless of FP noise in the cost model.
constexpr double kReuseTieTol = 1e-9;

// The entry of sharing `id` in a key's id-ordered contributor list, or
// where it would go.
template <typename Contributors>
auto ContributorAt(Contributors& contributors, SharingId id) {
  return std::lower_bound(
      contributors.begin(), contributors.end(), id,
      [](const auto& entry, SharingId key) { return entry.first < key; });
}

bool CostStrictlyBetter(double cost, double best_cost) {
  const double tol =
      kReuseTieTol * std::max({1.0, std::abs(cost), std::abs(best_cost)});
  return cost < best_cost - tol;
}

}  // namespace

int GlobalPlan::InternKey(const ViewKey& key) {
  const auto it = key_intern_.find(key);
  if (it != key_intern_.end()) return it->second;
  const int id = static_cast<int>(key_intern_.size());
  key_intern_.emplace(key, id);
  interned_keys_.push_back(key);
  return id;
}

int GlobalPlan::FindBestReuse(const ViewKey& needed, ServerId server,
                              const AddOptions& options,
                              double* residual_cost) const {
  if (options.forbid_reuse_keys != nullptr &&
      options.forbid_reuse_keys->count(needed) != 0) {
    return -1;
  }
  const auto it = by_tables_.find(needed.tables.mask());
  if (it == by_tables_.end()) return -1;
  const std::vector<int>& bucket = it->second;
  // Pass 1: a same-key view already on `server` needs no residual
  // filter/copy, costs zero and is preferred to every other candidate
  // (costs are non-negative, and an exact match wins a tie), so the
  // earliest one is returned before any cost-model call.
  if (cluster_->is_up(server)) {
    for (const int id : bucket) {
      const GPNode& cand = nodes_[static_cast<size_t>(id)];
      if (cand.alive && cand.server == server && cand.key == needed) {
        *residual_cost = 0.0;
        return id;
      }
    }
  }
  // Pass 2: every remaining candidate pays a residual filter/copy, and
  // near-ties keep the earliest (lowest-id) candidate.
  int best = -1;
  double best_cost = 0.0;
  // Signature prefilter: a candidate whose predicate signature has bits
  // outside `needed`'s cannot have a predicate subset (see
  // PredicateSignature), so most non-subsumers cost one AND instead of a
  // Subsumes call. It never rejects a true subsumer.
  const uint64_t needed_sig = PredicateSignature(needed.predicates);
  for (const int id : bucket) {
    const GPNode& cand = nodes_[static_cast<size_t>(id)];
    if (!cand.alive) continue;
    if ((cand.pred_sig & ~needed_sig) != 0) continue;
    if (!cand.key.Subsumes(needed)) continue;
    // A view on a down server is lost; it cannot feed anyone.
    if (!cluster_->is_up(cand.server)) continue;
    const double cost =
        model_->FilterCopyCost(cand.key, cand.server, needed, server);
    if (best < 0 || CostStrictlyBetter(cost, best_cost)) {
      best = id;
      best_cost = cost;
    }
  }
  if (best >= 0) *residual_cost = best_cost;
  return best;
}

GlobalPlan::SpaceEvaluation GlobalPlan::EvaluateSpace(
    const PlanSpace& space, const AddOptions& options) const {
  const std::vector<PlanSpace::Fragment>& frags = space.fragments();
  SpaceEvaluation eval;
  eval.fragment_decisions.resize(frags.size());
  eval.fragment_loads.resize(frags.size());
  eval.epoch = epoch_;
  eval.liveness_epoch = cluster_->liveness_epoch();
  // Per fragment, once decided: what serving it costs (its load goes to
  // eval.fragment_loads).
  struct Served {
    bool decided = false;
    double cost = 0.0;
  };
  std::vector<Served> served(frags.size());

  // The reuse answer for each (slot, server), probed at the first fragment
  // that needs it. The answer depends only on the key, the server and the
  // global plan, which no dry run changes, so it serves every fragment of
  // the slot on that server. A server outside the cluster (only a
  // hand-built plan has one) is probed afresh each time.
  struct Probe {
    bool probed = false;
    bool load_priced = false;
    bool needs_residual = false;
    int source = -1;
    double residual = 0.0;
    double residual_load = 0.0;  // the source's delta rate, once asked
  };
  const size_t width = cluster_->num_servers();
  std::vector<Probe> probes(space.slot_keys().size() * width);
  Probe unmemoized;
  uint64_t scans = 0;
  uint64_t answered = 0;
  const auto probe = [&](const PlanSpace::Fragment& frag) -> Probe& {
    Probe& p = frag.server < width
                   ? probes[static_cast<size_t>(frag.slot) * width +
                            frag.server]
                   : (unmemoized = Probe{});
    if (p.probed) {
      ++answered;
      return p;
    }
    ++scans;
    const ViewKey& key = space.key(frag);
    p.source = FindBestReuse(key, frag.server, options, &p.residual);
    if (p.source >= 0) {
      const GPNode& s = nodes_[static_cast<size_t>(p.source)];
      p.needs_residual = !(s.key == key && s.server == frag.server);
    }
    p.probed = true;
    return p;
  };

  // The reuse rule for fragment f, its children first: serve it fresh at
  // op + value(left) + value(right), unless the best reuse source's
  // residual is no larger (the fragment's whole subtree is then skipped).
  const auto decide = [&](const auto& self, int f) -> void {
    const auto fi = static_cast<size_t>(f);
    Served& me = served[fi];
    if (me.decided) return;
    const PlanSpace::Fragment& frag = frags[fi];
    double fresh = frag.op_cost;
    if (frag.left >= 0) {
      self(self, frag.left);
      fresh += served[static_cast<size_t>(frag.left)].cost;
    }
    if (frag.right >= 0) {
      self(self, frag.right);
      fresh += served[static_cast<size_t>(frag.right)].cost;
    }
    NodeDecision& d = eval.fragment_decisions[fi];
    Probe& p = probe(frag);
    if (p.source >= 0 && p.residual <= fresh) {
      d.state = NodeDecision::kReused;
      d.reuse_source = p.source;
      d.needs_residual = p.needs_residual;
      d.marginal_cost = p.residual;
      me.cost = p.residual;
      if (p.needs_residual && !p.load_priced) {
        p.residual_load =
            model_->DeltaRate(nodes_[static_cast<size_t>(p.source)].key);
        p.load_priced = true;
      }
      eval.fragment_loads[fi] = p.needs_residual ? p.residual_load : 0.0;
    } else {
      d.state = NodeDecision::kFresh;
      d.marginal_cost = frag.op_cost;
      me.cost = fresh;
      eval.fragment_loads[fi] = frag.load;
    }
    me.decided = true;
  };

  // Appends fragment f's subtree to eval.steps in post-order; everything
  // under a reused or skipped node is skipped.
  const auto walk = [&](const auto& self, int f, bool skipped) -> void {
    const PlanSpace::Fragment& frag = frags[static_cast<size_t>(f)];
    const NodeDecision::State state =
        skipped ? NodeDecision::kSkipped
                : eval.fragment_decisions[static_cast<size_t>(f)].state;
    const bool skip_children = state != NodeDecision::kFresh;
    if (frag.left >= 0) self(self, frag.left, skip_children);
    if (frag.right >= 0) self(self, frag.right, skip_children);
    eval.steps.push_back(SpaceEvaluation::Step{f, state});
  };

  eval.plans.reserve(space.size());
  std::vector<std::pair<ServerId, double>> added;  // per-server added load
  for (size_t k = 0; k < space.size(); ++k) {
    const int root = space.root(k);
    decide(decide, root);
    SpaceEvaluation::Plan plan;
    plan.marginal_cost = served[static_cast<size_t>(root)].cost;
    plan.first_step = eval.steps.size();
    walk(walk, root, false);
    plan.num_steps = eval.steps.size() - plan.first_step;

    // Along the walk (node-index order of Materialize(k)): standalone
    // cost, liveness (no work on a down server) and added load.
    added.clear();
    for (size_t i = plan.first_step; i < eval.steps.size(); ++i) {
      const SpaceEvaluation::Step& step = eval.steps[i];
      const auto fi = static_cast<size_t>(step.fragment);
      plan.standalone_cost += frags[fi].op_cost;
      if (step.state == NodeDecision::kSkipped) continue;
      const ServerId server = frags[fi].server;
      const bool places_work = step.state == NodeDecision::kFresh ||
                               eval.fragment_decisions[fi].needs_residual;
      if (places_work && !cluster_->is_up(server)) plan.feasible = false;
      const double load = eval.fragment_loads[fi];
      if (load <= 0.0) continue;
      const auto it = std::find_if(
          added.begin(), added.end(),
          [server](const auto& entry) { return entry.first == server; });
      if (it == added.end()) {
        added.emplace_back(server, load);
      } else {
        it->second += load;
      }
    }
    for (const auto& [server, load] : added) {
      if (!plan.feasible) break;
      if (ServerLoad(server) + load > cluster_->effective_capacity(server)) {
        plan.feasible = false;
      }
    }
    eval.lpc = std::min(eval.lpc, plan.standalone_cost);
    eval.plans.push_back(plan);
  }
  DSM_METRIC_COUNTER_ADD("dsm.globalplan.reuse_index_misses", scans);
  DSM_METRIC_COUNTER_ADD("dsm.globalplan.reuse_index_hits", answered);
  return eval;
}

GlobalPlan::NodeDecision GlobalPlan::SpaceEvaluation::decision(
    const Step& step) const {
  NodeDecision d = fragment_decisions[static_cast<size_t>(step.fragment)];
  if (step.state == NodeDecision::kSkipped) {
    d.state = NodeDecision::kSkipped;
    d.marginal_cost = 0.0;
  }
  return d;
}

int GlobalPlan::SpaceEvaluation::CheapestFeasible(double bound) const {
  int best = -1;
  for (size_t k = 0; k < plans.size(); ++k) {
    if (plans[k].feasible && plans[k].marginal_cost < bound) {
      best = static_cast<int>(k);
      bound = plans[k].marginal_cost;
    }
  }
  return best;
}

bool GlobalPlan::LivenessRulesOut(const Sharing& sharing) const {
  if (!model_->HasPureQueries()) return false;
  if (!cluster_->is_up(sharing.destination())) return true;
  for (const TableId t : sharing.tables().ToVector()) {
    const Result<ServerId> home = cluster_->HomeOf(t);
    if (!home.ok() || cluster_->is_up(*home)) continue;
    // Buckets hold alive ids only (KillNode erases), so one id on an up
    // server is a view a reused ancestor could take `t`'s data from.
    const auto on_up_server = [this](int id) {
      return cluster_->is_up(nodes_[static_cast<size_t>(id)].server);
    };
    const bool covered = std::any_of(
        by_tables_.begin(), by_tables_.end(), [&](const auto& entry) {
          return TableSet(entry.first).Contains(t) &&
                 std::any_of(entry.second.begin(), entry.second.end(),
                             on_up_server);
        });
    if (!covered) return true;
  }
  return false;
}

int GlobalPlan::CreateNode(GPNode node) {
  const int id = static_cast<int>(nodes_.size());
  // Children before parents: SharingsTouchingServer's one pass relies on it.
  assert(node.left < id && node.right < id);
  node.refcount = 0;
  node.alive = true;
  node.pred_sig = PredicateSignature(node.key.predicates);
  // Interned on creation, so key ids (and ComputeReuseStats's order)
  // follow the keys' first appearance in the global plan.
  InternKey(node.key);
  total_cost_ += node.cost;
  server_load_[node.server] += node.load;
  by_tables_[node.key.tables.mask()].push_back(id);
  ++alive_count_;
  ++epoch_;
  nodes_.push_back(std::move(node));
  DSM_METRIC_COUNTER_ADD("dsm.globalplan.nodes_created", 1);
  DSM_METRIC_GAUGE_SET("dsm.globalplan.total_cost", total_cost_);
  DSM_METRIC_GAUGE_SET("dsm.globalplan.alive_views",
                       static_cast<double>(alive_count_));
  return id;
}

void GlobalPlan::KillNode(int id) {
  GPNode& node = nodes_[static_cast<size_t>(id)];
  assert(node.alive && node.refcount == 0);
  node.alive = false;
  total_cost_ -= node.cost;
  server_load_[node.server] -= node.load;
  std::vector<int>& bucket = by_tables_[node.key.tables.mask()];
  bucket.erase(std::remove(bucket.begin(), bucket.end(), id), bucket.end());
  --alive_count_;
  ++epoch_;
  DSM_METRIC_COUNTER_ADD("dsm.globalplan.nodes_killed", 1);
  DSM_METRIC_GAUGE_SET("dsm.globalplan.total_cost", total_cost_);
  DSM_METRIC_GAUGE_SET("dsm.globalplan.alive_views",
                       static_cast<double>(alive_count_));
}

Result<const GlobalPlan::SharingRecord*> GlobalPlan::Commit(
    SharingId id, const Sharing& sharing, const PlanSpace& space,
    const SpaceEvaluation& eval, size_t k, std::optional<double> lpc) {
  if (records_.count(id) != 0) {
    return Status::AlreadyExists("sharing id already integrated");
  }
  if (eval.epoch != epoch_ ||
      eval.liveness_epoch != cluster_->liveness_epoch() ||
      eval.plans.size() != space.size() || k >= space.size()) {
    return Status::FailedPrecondition(
        "evaluation is stale, or not of this plan space and index");
  }

  // Plan node i is step `step_of[i]` of plan k: fragment i of a space
  // holding just one plan's nodes (PlanSpace::Of), else step i of
  // Materialize(k).
  const std::span<const SpaceEvaluation::Step> steps = eval.steps_of(k);
  const size_t n = steps.size();
  const bool as_built = space.size() == 1 && space.fragments().size() == n;
  std::vector<size_t> step_of(n);
  for (size_t j = 0; j < n; ++j) {
    step_of[as_built ? static_cast<size_t>(steps[j].fragment) : j] = j;
  }
  SharingRecord rec;
  if (as_built) {
    for (size_t i = 0; i < n; ++i) {
      rec.plan.nodes.push_back(space.node(static_cast<int>(i)));
    }
  } else {
    rec.plan = space.Materialize(k);
  }
  DSM_RETURN_IF_ERROR(CheckPlanComputes(rec.plan, sharing));

  rec.sharing = sharing;
  rec.decisions.resize(n);
  rec.plan_to_gp.assign(n, -1);
  rec.standalone_cost.assign(n, 0.0);
  rec.subtree_cost.assign(n, 0.0);
  rec.marginal_cost = eval.plans[k].marginal_cost;
  rec.lpc = lpc;

  const auto gp_of = [&rec](int child) {
    return child < 0 ? -1 : rec.plan_to_gp[static_cast<size_t>(child)];
  };
  const auto subtree = [&rec](int child) {
    return child < 0 ? 0.0 : rec.subtree_cost[static_cast<size_t>(child)];
  };
  double standalone = 0.0;  // Σ op cost in node-index order, as PlanCost
  for (size_t i = 0; i < n; ++i) {
    const PlanNode& pn = rec.plan.nodes[i];
    const SpaceEvaluation::Step& step = steps[step_of[i]];
    rec.standalone_cost[i] = space.fragment(step.fragment).op_cost;
    standalone += rec.standalone_cost[i];
    rec.subtree_cost[i] =
        rec.standalone_cost[i] + subtree(pn.left) + subtree(pn.right);

    const NodeDecision& d = rec.decisions[i] = eval.decision(step);
    // Reuse accounting covers committed integrations only — dry runs
    // during scoring would swamp the counters with candidates the
    // planner never picked.
    if (d.state == NodeDecision::kReused) {
      DSM_METRIC_COUNTER_ADD("dsm.globalplan.reuse_hits", 1);
    } else if (d.state == NodeDecision::kFresh &&
               pn.type != PlanNodeType::kLeaf) {
      DSM_METRIC_COUNTER_ADD("dsm.globalplan.reuse_misses", 1);
    }
    if (d.state == NodeDecision::kSkipped) continue;
    if (d.state == NodeDecision::kReused && !d.needs_residual) {
      rec.plan_to_gp[i] = d.reuse_source;
      continue;
    }
    // A fresh node, or a residual filter/copy over the reuse source.
    GPNode node;
    node.key = pn.key;
    node.server = pn.server;
    node.cost = d.marginal_cost;
    node.load = eval.fragment_loads[static_cast<size_t>(step.fragment)];
    if (d.state == NodeDecision::kReused) {
      node.left = d.reuse_source;
      rec.residual_cost += d.marginal_cost;
    } else {
      node.left = gp_of(pn.left);
      node.right = gp_of(pn.right);
    }
    rec.plan_to_gp[i] = CreateNode(std::move(node));
  }
  rec.gpc = standalone + rec.residual_cost;

  // Distinct non-leaf keys, interned once at admission so every later
  // costing refresh aggregates savings over dense ids. Plans are small, so
  // a linear dedup beats a hash set here.
  for (size_t i = 0; i < n; ++i) {
    if (rec.plan.nodes[i].type == PlanNodeType::kLeaf) continue;
    const int kid = InternKey(rec.plan.nodes[i].key);
    const auto& keys = rec.distinct_keys;
    if (std::none_of(keys.begin(), keys.end(),
                     [kid](const auto& entry) { return entry.first == kid; })) {
      rec.distinct_keys.emplace_back(kid, static_cast<int>(i));
    }
  }

  SharingRecord& stored = records_[id] = std::move(rec);
  for (const int gp : ClosureOf(stored)) {
    ++nodes_[static_cast<size_t>(gp)].refcount;
  }
  for (const auto& [kid, node] : stored.distinct_keys) {
    auto& c = TouchKeySaving(kid).contributors;
    c.emplace(ContributorAt(c, id), id, ReuseSaving(stored, node));
  }
  return &stored;
}

Result<const GlobalPlan::SharingRecord*> GlobalPlan::AddSharing(
    SharingId id, const Sharing& sharing, const SharingPlan& plan,
    const AddOptions& options) {
  DSM_RETURN_IF_ERROR(CheckPlanComputes(plan, sharing));
  const PlanSpace space = PlanSpace::Of(plan, model_);
  return Commit(id, sharing, space, EvaluateSpace(space, options), 0,
                std::nullopt);
}

std::vector<int> GlobalPlan::ClosureOf(const SharingRecord& rec) const {
  std::unordered_set<int> closure;
  std::function<void(int)> reach = [&](int gp) {
    if (gp < 0 || !closure.insert(gp).second) return;
    const GPNode& g = nodes_[static_cast<size_t>(gp)];
    reach(g.left);
    reach(g.right);
  };
  for (const int gp : rec.plan_to_gp) reach(gp);
  return std::vector<int>(closure.begin(), closure.end());
}

Status GlobalPlan::RemoveSharing(SharingId id) {
  const auto it = records_.find(id);
  if (it == records_.end()) {
    return Status::NotFound("unknown sharing id");
  }
  for (const int gp : ClosureOf(it->second)) {
    GPNode& node = nodes_[static_cast<size_t>(gp)];
    if (--node.refcount == 0 && node.alive) {
      KillNode(gp);
    }
  }
  for (const auto& [kid, node] : it->second.distinct_keys) {
    auto& c = TouchKeySaving(kid).contributors;
    c.erase(ContributorAt(c, id));
  }
  records_.erase(it);
  return Status::OK();
}

double GlobalPlan::ServerLoad(ServerId server) const {
  const auto it = server_load_.find(server);
  return it == server_load_.end() ? 0.0 : it->second;
}

bool GlobalPlan::HasUnpredicatedView(TableSet tables) const {
  const auto it = by_tables_.find(tables.mask());
  if (it == by_tables_.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(), [this](int id) {
    const GPNode& node = nodes_[static_cast<size_t>(id)];
    return node.alive && node.key.predicates.empty();
  });
}

std::vector<SharingId> GlobalPlan::SharingsTouchingServer(
    ServerId server) const {
  std::vector<char> touches(nodes_.size(), 0);
  const auto marked = [&touches](int child) {
    return child >= 0 && touches[static_cast<size_t>(child)] != 0;
  };
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const GPNode& node = nodes_[i];
    touches[i] = node.alive && (node.server == server || marked(node.left) ||
                                marked(node.right));
  }
  std::vector<SharingId> out;
  for (const auto& [id, rec] : records_) {
    if (marked(rec.plan_to_gp.back())) out.push_back(id);
  }
  return out;
}

std::vector<SharingId> GlobalPlan::sharing_ids() const {
  std::vector<SharingId> out;
  out.reserve(records_.size());
  for (const auto& [id, rec] : records_) out.push_back(id);
  return out;
}

const GlobalPlan::SharingRecord* GlobalPlan::record(SharingId id) const {
  const auto it = records_.find(id);
  return it == records_.end() ? nullptr : &it->second;
}

double GlobalPlan::GPC(SharingId id) const {
  const SharingRecord* rec = record(id);
  return rec == nullptr ? 0.0 : rec->gpc;
}

std::optional<std::vector<int>> GlobalPlan::closure(SharingId id) const {
  const SharingRecord* rec = record(id);
  if (rec == nullptr) return std::nullopt;
  return ClosureOf(*rec);
}

double GlobalPlan::ReuseSaving(const SharingRecord& rec, int node) {
  const auto n = static_cast<size_t>(node);
  const NodeDecision& d = rec.decisions[n];
  return d.state == NodeDecision::kReused
             ? std::max(0.0, rec.subtree_cost[n] - d.marginal_cost)
             : 0.0;
}

void GlobalPlan::AccumulateReuse(std::vector<double>* saving,
                                 std::vector<int>* num) const {
  saving->assign(interned_keys_.size(), 0.0);
  num->assign(interned_keys_.size(), 0);
  for (const auto& [id, rec] : records_) {
    for (const auto& [kid, node] : rec.distinct_keys) {
      const auto k = static_cast<size_t>(kid);
      ++(*num)[k];
      (*saving)[k] += ReuseSaving(rec, node);
    }
  }
}

GlobalPlan::KeySaving& GlobalPlan::TouchKeySaving(int kid) {
  const auto k = static_cast<size_t>(kid);
  if (k >= key_savings_.size()) {
    key_savings_.resize(k + 1);
    saving_shares_.resize(k + 1, 0.0);
  }
  KeySaving& ks = key_savings_[k];
  if (!ks.dirty) {
    ks.dirty = true;
    dirty_keys_.push_back(kid);
  }
  return ks;
}

const std::vector<double>& GlobalPlan::SavingShares() const {
  // Contributions are >= +0.0, and x + 0.0 == x for x >= +0.0, so summing
  // a non-reused contributor's 0.0 leaves the same bits as skipping it.
  for (const int kid : dirty_keys_) {
    const KeySaving& ks = key_savings_[static_cast<size_t>(kid)];
    double saving = 0.0;
    for (const auto& [id, contribution] : ks.contributors) {
      saving += contribution;
    }
    const int num = static_cast<int>(ks.contributors.size());
    saving_shares_[static_cast<size_t>(kid)] = num > 0 ? saving / num : 0.0;
    ks.dirty = false;
  }
  dirty_keys_.clear();
  return saving_shares_;
}

std::vector<GlobalPlan::ReuseStat> GlobalPlan::ComputeReuseStats() const {
  std::vector<double> saving;
  std::vector<int> num;
  AccumulateReuse(&saving, &num);
  std::vector<ReuseStat> out;
  for (size_t kid = 0; kid < num.size(); ++kid) {
    if (num[kid] == 0) continue;
    ReuseStat st;
    st.key = interned_keys_[kid];
    st.saving = saving[kid];
    st.num = num[kid];
    out.push_back(std::move(st));
  }
  return out;
}

}  // namespace dsm
