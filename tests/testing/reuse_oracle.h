// Test helper: a brute-force referee for GlobalPlan's reuse decisions.
//
// ReuseOracle re-derives a plan's evaluation from the global plan's public
// records only. The alive nodes are the union of the active sharings'
// closures, and each node's (key, server) is learned from the plan_to_gp
// of the sharing whose integration created it (node ids are never reused,
// so the entry stays valid after that sharing leaves). For each plan node
// it tries every alive view on an up server in ascending node-id order:
// Subsumes, then FilterCopyCost (0 for an exact same-server match), with
// the same tolerance tie-break as GlobalPlan. It serves a node fresh at
// op + value(left) + value(right) unless the best residual is no larger,
// then applies the liveness and capacity feasibility checks. It shares no
// code with GlobalPlan's evaluation beyond the cost model and the
// PlanNodeCost/PlanNodeLoad/PlanCost pricing helpers.
//
// Each time the active set changes it also re-derives every server's
// blast radius (SharingsTouchingServer) from the closures and node servers.
//
// The oracle prices nodes in decision order, not node-index order, so with
// a stateful cost model (TableDrivenCostModel) it must only evaluate plans
// whose costs have already been drawn, e.g. enumerated ones.

#ifndef DSM_TESTS_TESTING_REUSE_ORACLE_H_
#define DSM_TESTS_TESTING_REUSE_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "cost/cost_model.h"
#include "globalplan/global_plan.h"
#include "testing/dry_run.h"

namespace dsm {
namespace testing_support {

class ReuseOracle {
 public:
  using NodeDecision = GlobalPlan::NodeDecision;

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
    eval.standalone_cost = PlanCost(plan, model_);

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

  // GlobalPlan's reuse tie-break: costs within a relative 1e-9 tie, and an
  // exact match wins a tie.
  static bool StrictlyBetter(double cost, double best_cost) {
    const double tol =
        1e-9 * std::max({1.0, std::abs(cost), std::abs(best_cost)});
    return cost < best_cost - tol;
  }

  static bool Ties(double cost, double best_cost) {
    const double tol =
        1e-9 * std::max({1.0, std::abs(cost), std::abs(best_cost)});
    return cost <= best_cost + tol;
  }

  // Alive nodes are exactly those some active sharing's closure holds.
  // They are grouped by table set only because Subsumes demands equal
  // table sets; within a group the scan is plain brute force. A server's
  // blast radius is every active sharing with a closure node on it.
  void RefreshAlive() {
    std::set<int> ids;
    std::map<ServerId, std::vector<SharingId>> touching;
    for (const SharingId id : active_) {
      const std::optional<std::vector<int>> closure = gp_->closure(id);
      ASSERT_TRUE(closure.has_value());
      ids.insert(closure->begin(), closure->end());
      std::set<ServerId> servers;
      for (const int node : *closure) servers.insert(gp_->node_server(node));
      for (const ServerId s : servers) touching[s].push_back(id);
    }
    for (ServerId s = 0; s < cluster_->num_servers(); ++s) {
      EXPECT_EQ(gp_->SharingsTouchingServer(s), touching[s])
          << "server " << s;
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

// Bit-for-bit equality of two evaluations of one plan.
inline void ExpectIdenticalEvaluations(const PlanEvaluation& got,
                                       const PlanEvaluation& want) {
  EXPECT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.marginal_cost, want.marginal_cost);  // bit-identical
  EXPECT_EQ(got.standalone_cost, want.standalone_cost);
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

}  // namespace testing_support
}  // namespace dsm

#endif  // DSM_TESTS_TESTING_REUSE_ORACLE_H_
