#include "workload/scenario.h"

#include <string>

#include "cost/default_cost_model.h"

namespace dsm {
namespace {

// Servers m0..m{servers-1}, the catalog's tables placed round-robin, then
// the requested cost model and the defaults.
void FinishWorld(Scenario* world, size_t servers,
                 const std::optional<TableDrivenCostModel::Options>& costs) {
  for (size_t i = 0; i < servers; ++i) {
    world->cluster->AddServer("m" + std::to_string(i));
  }
  world->cluster->PlaceRoundRobin(world->catalog->num_tables());
  if (costs.has_value()) {
    world->model = std::make_unique<TableDrivenCostModel>(*costs);
  }
  world->FillDefaults();
}

}  // namespace

void Scenario::FillDefaults() {
  if (graph == nullptr) {
    graph = std::make_unique<JoinGraph>(JoinGraph::FromCatalog(*catalog));
  }
  if (model == nullptr) {
    model = std::make_unique<DefaultCostModel>(catalog.get(), cluster.get());
  }
}

TwitterScenario MakeTwitterScenario(
    size_t servers, std::optional<TableDrivenCostModel::Options> table_costs) {
  TwitterScenario world;
  // A fresh catalog holds no name the schema could clash with.
  world.tables = *BuildTwitterCatalog(world.catalog.get());
  FinishWorld(&world, servers, table_costs);
  return world;
}

StarScenario MakeStarScenario(
    int facts, int dims, size_t servers,
    std::optional<TableDrivenCostModel::Options> table_costs) {
  StarScenario world;
  // Precondition: 1 <= facts, 1 <= dims, facts + dims <= 64.
  world.schema = *BuildStarCatalog(world.catalog.get(),
                                   StarSchemaOptions{facts, dims});
  FinishWorld(&world, servers, table_costs);
  return world;
}

}  // namespace dsm
