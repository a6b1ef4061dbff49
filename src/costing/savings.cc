#include "costing/savings.h"

#include "costing/containment_dag.h"
#include "obs/trace.h"

namespace dsm {

Result<FairCostProblem> BuildFairCostProblem(
    const GlobalPlan& global_plan, LpcCalculator* lpc,
    IncrementalContainmentIndex* dag_index) {
  FairCostProblem problem;
  problem.global_cost = global_plan.TotalCost();
  const size_t n = global_plan.num_sharings();
  problem.ids.reserve(n);
  QueryRefs queries;
  queries.reserve(n);
  problem.entries.reserve(n);

  // saving(r)/num(r) per intermediate result, dense over interned key
  // ids; each record carries its distinct key ids since admission, so
  // this whole aggregation never hashes a ViewKey.
  const std::vector<double> shares = global_plan.ComputeSavingShares();

  std::vector<double> lpcs;
  lpcs.reserve(n);
  for (const auto& [id, rec] : global_plan.records()) {
    problem.ids.push_back(id);
    queries.emplace_back(rec.sharing.ResultKey());

    FairCostEntry entry;
    entry.id = id;
    entry.gpc = rec.gpc;
    // The admitting planner priced every plan already; only hand-built
    // and restored records are enumerated again.
    if (rec.lpc.has_value()) {
      entry.lpc = *rec.lpc;
    } else {
      DSM_ASSIGN_OR_RETURN(entry.lpc, lpc->Lpc(rec.sharing));
    }

    // Σ_{r ∈ S's plan} saving(r)/num(r), over distinct intermediate
    // results of the sharing's individual plan.
    for (const auto& [kid, node] : rec.distinct_keys) {
      (void)node;
      entry.saving_term += shares[static_cast<size_t>(kid)];
    }

    lpcs.push_back(entry.lpc);
    problem.entries.push_back(std::move(entry));
  }

  ContainmentDag dag;
  {
    DSM_TRACE_SPAN("costing/dag_update");
    dag = dag_index != nullptr ? dag_index->Update(problem.ids, queries, lpcs)
                               : BuildContainmentDag(queries, lpcs);
  }
  for (size_t i = 0; i < problem.entries.size(); ++i) {
    problem.entries[i].identity_group = dag.identity_group[i];
    problem.entries[i].containers = dag.containers[i];
  }
  return problem;
}

}  // namespace dsm
