#include "costing/savings.h"

#include "costing/containment_dag.h"
#include "obs/trace.h"

namespace dsm {

Result<FairCostProblem> BuildFairCostProblem(
    const GlobalPlan& global_plan, LpcCalculator* lpc,
    IncrementalContainmentIndex* dag_index) {
  FairCostProblem problem;
  DSM_RETURN_IF_ERROR(
      BuildFairCostProblem(global_plan, lpc, dag_index, &problem));
  return problem;
}

Status BuildFairCostProblem(const GlobalPlan& global_plan,
                            LpcCalculator* lpc,
                            IncrementalContainmentIndex* dag_index,
                            FairCostProblem* problem) {
  problem->global_cost = global_plan.TotalCost();
  const size_t n = global_plan.num_sharings();
  problem->ids.clear();
  problem->ids.reserve(n);
  problem->entries.resize(n);
  QueryRefs queries;
  queries.reserve(n);
  std::vector<double> lpcs;
  lpcs.reserve(n);

  // saving(r)/num(r) per intermediate result, dense over interned key
  // ids and kept current by the global plan; each record carries its
  // distinct key ids since admission, so no ViewKey is hashed here.
  const std::vector<double>& shares = global_plan.SavingShares();

  size_t i = 0;
  for (const auto& [id, rec] : global_plan.records()) {
    problem->ids.push_back(id);
    queries.emplace_back(rec.sharing.ResultKey());

    FairCostEntry& entry = problem->entries[i++];
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
    entry.saving_term = 0.0;
    for (const auto& [kid, node] : rec.distinct_keys) {
      (void)node;
      entry.saving_term += shares[static_cast<size_t>(kid)];
    }
    lpcs.push_back(entry.lpc);
  }

  // The index keeps its DAG in place, so container lists are copied, into
  // the capacity the entries kept from the previous refresh.
  DSM_TRACE_SPAN("costing/dag_update");
  ContainmentDag scratch;
  const ContainmentDag& dag =
      dag_index != nullptr
          ? dag_index->Update(problem->ids, queries, lpcs)
          : (scratch = BuildContainmentDag(queries, lpcs));
  for (size_t k = 0; k < n; ++k) {
    problem->entries[k].identity_group = dag.identity_group[k];
    problem->entries[k].containers = dag.containers[k];
  }
  return Status::OK();
}

}  // namespace dsm
