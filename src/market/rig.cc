#include "market/rig.h"

#include <cassert>

#include "online/greedy.h"
#include "online/managed_risk.h"
#include "online/normalize.h"

namespace dsm {

Rig MakeRig(const Scenario& world, EnumeratorOptions options) {
  assert(world.graph != nullptr && world.model != nullptr);
  Rig rig;
  rig.enumerator = std::make_unique<PlanEnumerator>(
      world.catalog.get(), world.cluster.get(), world.graph.get(),
      world.model.get(), options);
  rig.global_plan =
      std::make_unique<GlobalPlan>(world.cluster.get(), world.model.get());
  rig.ctx = PlannerContext{world.catalog.get(),    world.cluster.get(),
                           world.graph.get(),      world.model.get(),
                           rig.global_plan.get(), rig.enumerator.get()};
  return rig;
}

const char* PlannerName(PlannerKind kind) {
  switch (kind) {
    case PlannerKind::kGreedy:
      return "Greedy";
    case PlannerKind::kNormalize:
      return "Normalize";
    case PlannerKind::kManagedRisk:
      return "ManagedRisk";
  }
  return "?";
}

std::unique_ptr<OnlinePlanner> MakePlanner(PlannerKind kind,
                                           const PlannerContext& ctx) {
  switch (kind) {
    case PlannerKind::kGreedy:
      return std::make_unique<GreedyPlanner>(ctx);
    case PlannerKind::kNormalize:
      return std::make_unique<NormalizePlanner>(ctx);
    case PlannerKind::kManagedRisk:
      return std::make_unique<ManagedRiskPlanner>(ctx);
  }
  return nullptr;
}

double RunSequence(OnlinePlanner* planner, const Scenario& world) {
  for (const Sharing& sharing : world.sharings) {
    (void)planner->ProcessSharing(sharing);
  }
  return planner->context().global_plan->TotalCost();
}

}  // namespace dsm
