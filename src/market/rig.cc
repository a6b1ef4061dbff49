#include "market/rig.h"

#include <cassert>

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

double RunSequence(OnlinePlanner* planner, const Scenario& world) {
  for (const Sharing& sharing : world.sharings) {
    (void)planner->ProcessSharing(sharing);
  }
  return planner->context().global_plan->TotalCost();
}

}  // namespace dsm
