// The indexed reuse lookup against a brute-force oracle: over random
// predicated workloads with add/remove churn and server liveness flips,
// every candidate plan's GlobalPlan evaluation must match, bit for bit, a
// re-derivation that scans all alive views for the cheapest source.
//
// The oracle sees the global plan only through its public records. The
// alive nodes are the union of the active sharings' closures, and each
// node's (key, server) is learned from the plan_to_gp of the sharing
// whose integration created it (node ids are never reused, so the entry
// stays valid after that sharing leaves). For each plan node it tries
// every alive view on an up server in ascending node-id order: Subsumes,
// then FilterCopyCost (0 for an exact same-server match), with the same
// tolerance tie-break. It then replays Decide's reuse-or-fresh choice and
// the liveness and capacity feasibility checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "cost/default_cost_model.h"
#include "globalplan/global_plan.h"
#include "plan/enumerator.h"
#include "plan/join_graph.h"
#include "testing/plans.h"
#include "workload/twitter.h"

namespace dsm {
namespace {

// GlobalPlan's reuse tie-break: costs within a relative 1e-9 tie, and an
// exact match wins a tie.
bool StrictlyBetter(double cost, double best_cost) {
  const double tol =
      1e-9 * std::max({1.0, std::abs(cost), std::abs(best_cost)});
  return cost < best_cost - tol;
}

bool Ties(double cost, double best_cost) {
  const double tol =
      1e-9 * std::max({1.0, std::abs(cost), std::abs(best_cost)});
  return cost <= best_cost + tol;
}

using NodeDecision = GlobalPlan::NodeDecision;
using PlanEvaluation = GlobalPlan::PlanEvaluation;

class ReuseOracle {
 public:
  ReuseOracle(const GlobalPlan* gp, const Cluster* cluster, CostModel* model)
      : gp_(gp), cluster_(cluster), model_(model) {}

  // Records sharing `id` (just integrated) and the nodes its plan maps to.
  void Added(SharingId id) {
    const GlobalPlan::SharingRecord* rec = gp_->record(id);
    ASSERT_NE(rec, nullptr);
    for (size_t i = 0; i < rec->plan_to_gp.size(); ++i) {
      const int node = rec->plan_to_gp[i];
      if (node < 0) continue;
      const PlanNode& pn = rec->plan.nodes[i];
      const auto [it, inserted] =
          nodes_.try_emplace(node, Node{node, pn.key, pn.server});
      if (!inserted) {  // an exact reuse maps to a same-key, same-server view
        EXPECT_TRUE(it->second.key == pn.key);
        EXPECT_EQ(it->second.server, pn.server);
      }
    }
    active_.insert(id);
    RefreshAlive();
  }

  void Removed(SharingId id) {
    active_.erase(id);
    RefreshAlive();
  }

  PlanEvaluation Evaluate(const SharingPlan& plan) {
    const size_t n = plan.nodes.size();
    PlanEvaluation eval;
    eval.decisions.assign(n, NodeDecision{});
    std::function<void(int)> skip = [&](int i) {
      eval.decisions[static_cast<size_t>(i)].state = NodeDecision::kSkipped;
      eval.decisions[static_cast<size_t>(i)].marginal_cost = 0.0;
      const PlanNode& pn = plan.nodes[static_cast<size_t>(i)];
      if (pn.left >= 0) skip(pn.left);
      if (pn.right >= 0) skip(pn.right);
    };
    std::function<double(int)> decide = [&](int i) -> double {
      const PlanNode& pn = plan.nodes[static_cast<size_t>(i)];
      NodeDecision& d = eval.decisions[static_cast<size_t>(i)];
      const double op = PlanNodeCost(plan, static_cast<size_t>(i), model_);
      double fresh = op;
      if (pn.left >= 0) fresh += decide(pn.left);
      if (pn.right >= 0) fresh += decide(pn.right);
      double residual = 0.0;
      bool exact = false;
      const int src = BestSource(pn.key, pn.server, &residual, &exact);
      if (src >= 0 && residual <= fresh) {
        d.state = NodeDecision::kReused;
        d.reuse_source = src;
        d.needs_residual = !exact;
        d.marginal_cost = residual;
        if (pn.left >= 0) skip(pn.left);
        if (pn.right >= 0) skip(pn.right);
        return residual;
      }
      d.state = NodeDecision::kFresh;
      d.marginal_cost = op;
      return fresh;
    };
    eval.marginal_cost = decide(plan.root_index());

    // No work on a down server; no server pushed past its capacity.
    std::map<ServerId, double> added;
    for (size_t i = 0; i < n; ++i) {
      const NodeDecision& d = eval.decisions[i];
      const ServerId server = plan.nodes[i].server;
      double load = 0.0;
      if (d.state == NodeDecision::kFresh) {
        load = PlanNodeLoad(plan, i, model_);
      } else if (d.state == NodeDecision::kReused && d.needs_residual) {
        load = model_->DeltaRate(nodes_.at(d.reuse_source).key);
      } else {
        continue;
      }
      if (!cluster_->is_up(server)) eval.feasible = false;
      if (load > 0.0) added[server] += load;
    }
    for (const auto& [server, load] : added) {
      if (gp_->ServerLoad(server) + load >
          cluster_->effective_capacity(server)) {
        eval.feasible = false;
      }
    }
    return eval;
  }

 private:
  struct Node {
    int id = -1;
    ViewKey key;
    ServerId server = 0;
  };

  // Alive nodes are exactly those some active sharing's closure holds.
  // They are grouped by table set only because Subsumes demands equal
  // table sets; within a group the scan is plain brute force.
  void RefreshAlive() {
    std::set<int> ids;
    for (const SharingId id : active_) {
      const std::vector<int>* closure = gp_->closure(id);
      ASSERT_NE(closure, nullptr);
      ids.insert(closure->begin(), closure->end());
    }
    ASSERT_EQ(ids.size(), gp_->num_alive_views());
    alive_.clear();
    for (const int id : ids) {
      const Node& node = nodes_.at(id);
      EXPECT_EQ(gp_->node_server(id), node.server);
      alive_[node.key.tables.mask()].push_back(&node);
    }
  }

  // The cheapest alive view on an up server that subsumes `needed`, as
  // seen from `server`; -1 if none. Ties (within tolerance) keep the
  // lower node id unless the later candidate is exact and the kept one
  // is not.
  int BestSource(const ViewKey& needed, ServerId server, double* residual,
                 bool* exact) const {
    int best = -1;
    double best_cost = 0.0;
    bool best_exact = false;
    const auto group = alive_.find(needed.tables.mask());
    if (group == alive_.end()) return -1;
    for (const Node* node : group->second) {
      if (!node->key.Subsumes(needed) || !cluster_->is_up(node->server)) {
        continue;
      }
      const bool is_exact = node->server == server && node->key == needed;
      const double cost = is_exact ? 0.0
                                   : model_->FilterCopyCost(
                                         node->key, node->server, needed,
                                         server);
      if (best < 0 || StrictlyBetter(cost, best_cost) ||
          (Ties(cost, best_cost) && is_exact && !best_exact)) {
        best = node->id;
        best_cost = cost;
        best_exact = is_exact;
      }
    }
    *residual = best_cost;
    *exact = best_exact;
    return best;
  }

  const GlobalPlan* gp_;
  const Cluster* cluster_;
  CostModel* model_;
  // Every node ever created, by id (ids are never reused).
  std::map<int, Node> nodes_;
  std::set<SharingId> active_;
  // Alive nodes by table mask, each group in ascending node id.
  std::map<uint64_t, std::vector<const Node*>> alive_;
};

struct Rig {
  Catalog catalog;
  Cluster cluster;
  TwitterTables tables;
  std::unique_ptr<JoinGraph> graph;
  std::unique_ptr<DefaultCostModel> model;
  std::unique_ptr<PlanEnumerator> enumerator;
  std::unique_ptr<GlobalPlan> gp;
  std::unique_ptr<ReuseOracle> oracle;
};

std::unique_ptr<Rig> MakeRig() {
  auto rig = std::make_unique<Rig>();
  const auto tables = BuildTwitterCatalog(&rig->catalog);
  EXPECT_TRUE(tables.ok());
  rig->tables = *tables;
  for (int i = 0; i < 4; ++i) {
    rig->cluster.AddServer("m" + std::to_string(i));
  }
  rig->cluster.PlaceRoundRobin(rig->catalog.num_tables());
  rig->graph =
      std::make_unique<JoinGraph>(JoinGraph::FromCatalog(rig->catalog));
  rig->model =
      std::make_unique<DefaultCostModel>(&rig->catalog, &rig->cluster);
  rig->enumerator = std::make_unique<PlanEnumerator>(
      &rig->catalog, &rig->cluster, rig->graph.get(), rig->model.get(),
      EnumeratorOptions{});
  rig->gp = std::make_unique<GlobalPlan>(&rig->cluster, rig->model.get());
  rig->oracle = std::make_unique<ReuseOracle>(rig->gp.get(), &rig->cluster,
                                              rig->model.get());
  return rig;
}

void ExpectIdenticalEvaluations(const PlanEvaluation& got,
                                const PlanEvaluation& want) {
  EXPECT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.marginal_cost, want.marginal_cost);  // bit-identical
  ASSERT_EQ(got.decisions.size(), want.decisions.size());
  for (size_t i = 0; i < got.decisions.size(); ++i) {
    EXPECT_EQ(got.decisions[i].state, want.decisions[i].state);
    EXPECT_EQ(got.decisions[i].reuse_source, want.decisions[i].reuse_source);
    EXPECT_EQ(got.decisions[i].needs_residual,
              want.decisions[i].needs_residual);
    EXPECT_EQ(got.decisions[i].marginal_cost,
              want.decisions[i].marginal_cost);
  }
}

// Integrates `plan` and checks the committed decisions against the oracle.
void AddAndCheck(Rig* rig, SharingId id, const Sharing& sharing,
                 const SharingPlan& plan) {
  const PlanEvaluation want = rig->oracle->Evaluate(plan);
  const auto got = rig->gp->AddSharing(id, sharing, plan);
  ASSERT_TRUE(got.ok());
  ExpectIdenticalEvaluations(*got, want);
  rig->oracle->Added(id);
}

class ReuseOracleTest : public ::testing::TestWithParam<uint64_t> {};

// Every candidate plan of a long predicated sequence — over a thousand
// plans per seed — evaluates as the oracle says, through add/remove churn
// and repeated reuse of hot subexpressions.
TEST_P(ReuseOracleTest, RandomPlansMatchOracle) {
  auto rig = MakeRig();
  TwitterSequenceOptions options;
  options.num_sharings = 120;
  options.max_predicates = 2;
  options.frac_with_predicates = 0.5;
  options.seed = GetParam();
  const std::vector<Sharing> sequence = GenerateTwitterSequence(
      rig->catalog, rig->tables, rig->cluster, options);

  Rng rng(GetParam() ^ 0xfeed);
  std::vector<SharingId> active;
  SharingId next_id = 1;
  size_t plans_compared = 0;

  for (const Sharing& sharing : sequence) {
    if (!active.empty() && rng.Bernoulli(0.25)) {
      const size_t pick = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(active.size()) - 1));
      ASSERT_TRUE(rig->gp->RemoveSharing(active[pick]).ok());
      rig->oracle->Removed(active[pick]);
      active.erase(active.begin() + static_cast<int64_t>(pick));
    }

    const auto plans = testing_support::EnumerateAll(*rig->enumerator, sharing);
    ASSERT_TRUE(plans.ok());
    size_t best = 0;
    double best_cost = 0.0;
    for (size_t i = 0; i < plans->size(); ++i) {
      const PlanEvaluation got = rig->gp->EvaluatePlan((*plans)[i]);
      ExpectIdenticalEvaluations(got, rig->oracle->Evaluate((*plans)[i]));
      ++plans_compared;
      if (i == 0 || got.marginal_cost < best_cost) {
        best = i;
        best_cost = got.marginal_cost;
      }
    }
    AddAndCheck(rig.get(), next_id, sharing, (*plans)[best]);
    active.push_back(next_id);
    ++next_id;
  }
  EXPECT_GT(plans_compared, 1000u);
}

// Liveness flips invalidate the best-source cache: after MarkDown the
// global plan must stop proposing reuse from the dead server, and after
// MarkUp it must propose it again, both as the oracle says.
TEST_P(ReuseOracleTest, LivenessFlipsMatchOracle) {
  auto rig = MakeRig();
  TwitterSequenceOptions options;
  options.num_sharings = 40;
  options.max_predicates = 1;
  options.seed = GetParam() ^ 0xdead;
  const std::vector<Sharing> sequence = GenerateTwitterSequence(
      rig->catalog, rig->tables, rig->cluster, options);

  SharingId next_id = 1;
  size_t plans_compared = 0;
  Rng rng(GetParam());
  for (const Sharing& sharing : sequence) {
    if (rng.Bernoulli(0.2)) {
      const ServerId victim =
          static_cast<ServerId>(rng.UniformInt(0, 3));
      if (rig->cluster.is_up(victim) &&
          rig->cluster.num_live_servers() > 2) {
        ASSERT_TRUE(rig->cluster.MarkDown(victim).ok());
      } else if (!rig->cluster.is_up(victim)) {
        ASSERT_TRUE(rig->cluster.MarkUp(victim).ok());
      }
    }
    const auto plans = testing_support::EnumerateAll(*rig->enumerator, sharing);
    ASSERT_TRUE(plans.ok());
    for (const SharingPlan& plan : *plans) {
      ExpectIdenticalEvaluations(rig->gp->EvaluatePlan(plan),
                                 rig->oracle->Evaluate(plan));
      ++plans_compared;
    }
    AddAndCheck(rig.get(), next_id, sharing, plans->front());
    ++next_id;
  }
  EXPECT_GT(plans_compared, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReuseOracleTest,
                         ::testing::Values(3, 17, 91, 257));

}  // namespace
}  // namespace dsm
