// PlanEnumerator: generates the possible sharing plans for a sharing.
//
// "In most cases we can afford to enumerate all possible plans, since
// choosing sharing plans is not an interactive or time-critical task"
// (Section 4.1) — so the default mode enumerates every bushy join tree
// over the sharing's (connected) tables, every interesting server placement
// per join, and every leaf-vs-root placement of each predicate. For large
// sharings a beam (`per_subset_cap`) bounds the space, matching the
// paper's "heuristics can be applied to filter sharing plans" escape hatch.
//
// The result is a PlanSpace (plan/plan_space.h): the dynamic program's
// sub-plans as one flat fragment array shared by every plan built on top
// of them, each fragment priced when the DP creates it (one model call per
// distinct server triple of a split, not per fragment), and one root per
// plan. No node array is built unless a caller asks PlanSpace to
// Materialize a plan. Enumeration is single-threaded: predicate-pushdown
// choices run one after another, and cost-model queries keep the DP's
// order, which a stateful model (lazy memoization from an Rng) needs for
// reproducible costs.

#ifndef DSM_PLAN_ENUMERATOR_H_
#define DSM_PLAN_ENUMERATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "cluster/cluster.h"
#include "common/status.h"
#include "cost/cost_model.h"
#include "plan/join_graph.h"
#include "plan/plan.h"
#include "plan/plan_space.h"
#include "sharing/sharing.h"

namespace dsm {

struct EnumeratorOptions {
  // Hard cap on the number of plans returned for one sharing.
  size_t max_plans = 200000;
  // If nonzero, keep only the cheapest `per_subset_cap` sub-plans per
  // connected subset (beam search).
  size_t per_subset_cap = 0;
};

class PlanEnumerator {
 public:
  // `model` prices every fragment; Enumerate rejects a null one.
  PlanEnumerator(const Catalog* catalog, const Cluster* cluster,
                 const JoinGraph* graph, CostModel* model,
                 EnumeratorOptions options = {});

  // All plans for `sharing`, each a distinct tree, in a fixed order.
  // Errors if the sharing's tables are not connected in the join graph or
  // a table has no home server.
  Result<PlanSpace> Enumerate(const Sharing& sharing) const;

  // The error Enumerate would return for `sharing` before producing any
  // plan (InvalidArgument: no tables, unconnected tables, no cost model;
  // NotFound: an unplaced table), or OK if it would enumerate.
  Status Validate(const Sharing& sharing) const;

  const EnumeratorOptions& options() const { return options_; }

 private:
  struct SpaceBuilder;  // enumerator.cc

  // Runs the DP for one predicate-pushdown choice, adding the slots and
  // fragments no earlier choice built to `builder`. `full` receives the
  // slot over all the sharing's tables.
  Status EnumerateChoice(const Sharing& sharing,
                         const std::vector<TableSet>& subsets,
                         uint64_t pushdown, SpaceBuilder* builder,
                         int* full) const;

  const Catalog* catalog_;
  const Cluster* cluster_;
  const JoinGraph* graph_;
  CostModel* model_;
  EnumeratorOptions options_;
};

}  // namespace dsm

#endif  // DSM_PLAN_ENUMERATOR_H_
