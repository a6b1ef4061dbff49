#include "online/exhaustive.h"

#include <algorithm>
#include <chrono>

#include "globalplan/global_plan.h"

namespace dsm {
namespace {

using Clock = std::chrono::steady_clock;

struct SearchState {
  const std::vector<Sharing>* sharings = nullptr;
  const std::vector<std::vector<PlanSpace>>* plan_sets = nullptr;  // of one
  GlobalPlan* scratch = nullptr;
  double best_cost = 0.0;
  std::vector<size_t> current;
  std::vector<size_t> best;
  bool have_best = false;
  uint64_t explored = 0;
  Clock::time_point deadline;
  bool timed_out = false;
};

void Search(SearchState* st, size_t depth) {
  if (st->timed_out) return;
  if ((st->explored & 0x3ff) == 0 && Clock::now() > st->deadline) {
    st->timed_out = true;
    return;
  }
  const size_t n = st->sharings->size();
  if (depth == n) {
    const double cost = st->scratch->TotalCost();
    if (!st->have_best || cost < st->best_cost) {
      st->best_cost = cost;
      st->best = st->current;
      st->have_best = true;
    }
    return;
  }
  // Branch and bound: the global plan cost only grows as plans are added.
  if (st->have_best && st->scratch->TotalCost() >= st->best_cost) return;

  const std::vector<PlanSpace>& plans = (*st->plan_sets)[depth];
  for (size_t p = 0; p < plans.size(); ++p) {
    ++st->explored;
    const GlobalPlan::SpaceEvaluation probe =
        st->scratch->EvaluateSpace(plans[p]);
    if (!probe.plans[0].feasible) continue;
    const double added = probe.plans[0].marginal_cost;
    if (st->have_best && st->scratch->TotalCost() + added >= st->best_cost) {
      continue;
    }
    const SharingId id = static_cast<SharingId>(depth + 1);
    const Sharing& sharing = (*st->sharings)[depth];
    if (!st->scratch->Commit(id, sharing, plans[p], probe, 0, {}).ok()) {
      continue;
    }
    st->current[depth] = p;
    Search(st, depth + 1);
    (void)st->scratch->RemoveSharing(id);
    if (st->timed_out) return;
  }
}

}  // namespace

Result<ExhaustiveResult> ExhaustivePlanner::Solve(
    const std::vector<Sharing>& sharings) {
  std::vector<std::vector<PlanSpace>> plan_sets;
  plan_sets.reserve(sharings.size());
  for (const Sharing& s : sharings) {
    DSM_ASSIGN_OR_RETURN(const PlanSpace space,
                         ctx_.enumerator->Enumerate(s));
    if (space.empty()) {
      return Status::InvalidArgument("sharing has no plans");
    }
    // Cheapest standalone plans first: improves pruning and makes the
    // per-sharing cap keep the most promising candidates.
    std::vector<std::pair<double, size_t>> order;
    order.reserve(space.size());
    for (size_t i = 0; i < space.size(); ++i) {
      order.emplace_back(space.StandaloneCost(i), i);
    }
    std::sort(order.begin(), order.end());
    std::vector<PlanSpace> sorted;
    const size_t limit =
        options_.max_plans_per_sharing == 0
            ? space.size()
            : std::min(space.size(), options_.max_plans_per_sharing);
    sorted.reserve(limit);
    for (size_t i = 0; i < limit; ++i) {
      sorted.push_back(
          PlanSpace::Of(space.Materialize(order[i].second), ctx_.model));
    }
    plan_sets.push_back(std::move(sorted));
  }

  GlobalPlan scratch(ctx_.cluster, ctx_.model);
  SearchState st;
  st.sharings = &sharings;
  st.plan_sets = &plan_sets;
  st.scratch = &scratch;
  st.current.assign(sharings.size(), 0);
  st.deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       options_.time_limit_seconds));
  Search(&st, 0);

  if (!st.have_best) {
    return Status::Infeasible("no feasible joint plan assignment found");
  }
  ExhaustiveResult result;
  result.total_cost = st.best_cost;
  result.completed = !st.timed_out;
  result.nodes_explored = st.explored;
  result.plans.reserve(sharings.size());
  for (size_t i = 0; i < sharings.size(); ++i) {
    result.plans.push_back(plan_sets[i][st.best[i]].Materialize(0));
  }
  return result;
}

}  // namespace dsm
