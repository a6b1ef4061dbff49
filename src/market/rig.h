// Rig: the plan state over one world (workload/scenario.h) — an
// enumerator, a global plan and the PlannerContext that points every
// planner at them and at the world. MakeRig is the one place a
// PlannerContext is filled, and MakePlanner the one place a planner is
// chosen by kind.
//
// Several rigs may share one world: each gets its own global plan, and
// all of them the world's cost model, so planners compared on one world
// see the same (possibly order-drawn) costs.

#ifndef DSM_MARKET_RIG_H_
#define DSM_MARKET_RIG_H_

#include <memory>

#include "globalplan/global_plan.h"
#include "online/planner.h"
#include "plan/enumerator.h"
#include "workload/scenario.h"

namespace dsm {

struct Rig {
  std::unique_ptr<PlanEnumerator> enumerator;
  std::unique_ptr<GlobalPlan> global_plan;
  PlannerContext ctx;
};

// Precondition: the world's graph and model are set (Scenario::FillDefaults
// or a workload builder). The rig points into `world`, which must outlive
// it.
Rig MakeRig(const Scenario& world, EnumeratorOptions options = {});

// The online planners of Section 4, selectable by kind.
enum class PlannerKind { kGreedy, kNormalize, kManagedRisk };

// Every kind, in the order above (the order the paper's figures list them).
inline constexpr PlannerKind kPlannerKinds[] = {
    PlannerKind::kGreedy, PlannerKind::kNormalize, PlannerKind::kManagedRisk};

// "Greedy", "Normalize" or "ManagedRisk".
const char* PlannerName(PlannerKind kind);

// A planner of `kind` (with its default options) over `ctx`.
std::unique_ptr<OnlinePlanner> MakePlanner(PlannerKind kind,
                                           const PlannerContext& ctx);

// Feeds the world's sharing sequence through `planner`; returns the
// resulting global plan cost. A rejected sharing is skipped, not fatal.
double RunSequence(OnlinePlanner* planner, const Scenario& world);

}  // namespace dsm

#endif  // DSM_MARKET_RIG_H_
