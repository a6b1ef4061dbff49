// Scenario: one planning world — the catalog, the servers, the join graph
// and the cost model that every planner over it shares — plus, for the
// generated workloads, the sharing sequence to feed it.
//
// Planners over one world must share its cost model: a
// TableDrivenCostModel draws its random costs in first-query order, so
// GREEDY, NORMALIZE, MANAGEDRISK and EXHAUSTIVE compared on one world see
// the same costs only through the same model. The plan state built on a
// world (enumerator, global plan, PlannerContext) is kept apart, in
// market/rig.h, so several planners can each get their own.

#ifndef DSM_WORKLOAD_SCENARIO_H_
#define DSM_WORKLOAD_SCENARIO_H_

#include <memory>
#include <optional>
#include <vector>

#include "catalog/catalog.h"
#include "cluster/cluster.h"
#include "cost/cost_model.h"
#include "cost/table_cost_model.h"
#include "plan/join_graph.h"
#include "sharing/sharing.h"
#include "workload/synthetic.h"
#include "workload/twitter.h"

namespace dsm {

struct Scenario {
  std::unique_ptr<Catalog> catalog = std::make_unique<Catalog>();
  std::unique_ptr<Cluster> cluster = std::make_unique<Cluster>();
  std::unique_ptr<JoinGraph> graph;
  std::unique_ptr<CostModel> model;
  std::vector<Sharing> sharings;

  // Completes a world whose catalog and cluster are filled: an unset join
  // graph becomes JoinGraph::FromCatalog, an unset cost model the
  // analytical DefaultCostModel over this catalog and cluster.
  void FillDefaults();
};

// The Twitter schema of Section 6.1.2 on `servers` machines m0, m1, ...
// of unbounded capacity, its tables placed round-robin (a caller may
// re-place them with Cluster::PlaceTable before planning). The cost model
// is the analytical one unless `table_costs` asks for explicit join costs.
struct TwitterScenario : Scenario {
  TwitterTables tables;
};
TwitterScenario MakeTwitterScenario(
    size_t servers,
    std::optional<TableDrivenCostModel::Options> table_costs = std::nullopt);

// The synthetic star schema (`facts` fact and `dims` dimension tables) on
// `servers` machines, placed and costed as MakeTwitterScenario's.
struct StarScenario : Scenario {
  StarSchema schema;
};
StarScenario MakeStarScenario(
    int facts, int dims, size_t servers,
    std::optional<TableDrivenCostModel::Options> table_costs = std::nullopt);

}  // namespace dsm

#endif  // DSM_WORKLOAD_SCENARIO_H_
