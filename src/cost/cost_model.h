// CostModel: dollar cost per time unit of maintenance operators.
//
// The paper assumes "the data market service provider has a cost model for
// estimating the dollar cost of each subexpression" (Section 3.3) and, in
// the evaluation, uses the calibrated analytical model of its substrate
// system [9] "instead of setting up and running the sharings". This
// interface is that assumption made explicit. Two implementations ship:
//  * DefaultCostModel — analytical, driven by catalog statistics and the
//    cluster's dollar rates (the [9]-style model).
//  * TableDrivenCostModel — explicit per-join costs, used for the paper's
//    synthetic experiments ("the cost of each join is a random number
//    between 1 and 1e5") and the worked examples (4.1, 4.2, 5.1).
//
// Models are queried from one thread only (enumeration, admission and
// costing are serial), so their memos are unlocked. HasPureQueries() says
// whether answers are independent of query order: true for the analytical
// model, false for the table-driven one, which draws memoized costs from
// an Rng in first-query order.

#ifndef DSM_COST_COST_MODEL_H_
#define DSM_COST_COST_MODEL_H_

#include "cluster/cluster.h"
#include "expr/view_key.h"
#include "plan/plan.h"

namespace dsm {

class CostModel {
 public:
  virtual ~CostModel() = default;

  // True if every query's answer is independent of query order, so a
  // caller may skip calls without changing later answers (only the global
  // plan's liveness rule-out relies on this). Models whose memoization is
  // order-dependent (e.g. the TableDrivenCostModel, which draws memoized
  // values from an Rng in first-query order) must keep the default false.
  // Query methods are not thread-safe either way.
  virtual bool HasPureQueries() const { return false; }

  // $ per time unit to maintain the join view `out` at `server` from the
  // child views (each possibly on a different server; cross-server children
  // imply delta-copy traffic as in Figure 2).
  virtual double JoinCost(const ViewKey& out, ServerId server,
                          const ViewKey& left, ServerId left_server,
                          const ViewKey& right, ServerId right_server) = 0;

  // $ per time unit to derive `out` from the existing view `src` by
  // applying residual predicates and/or relocating the delta stream to
  // `out_server`. Zero when src == out on the same server.
  virtual double FilterCopyCost(const ViewKey& src, ServerId src_server,
                                const ViewKey& out, ServerId out_server) = 0;

  // $ per time unit for a (possibly filtered) base-table leaf. Unfiltered
  // leaves cost nothing: owners already maintain their tables.
  virtual double LeafCost(TableId table, const ViewKey& key,
                          ServerId server) = 0;

  // Update tuples per time unit emitted by the view — both the input load
  // its consumers must process and the basis for capacity accounting.
  virtual double DeltaRate(const ViewKey& key) = 0;

  // perc_s(P) from Eq. (3): the fraction of the *unpredicated* result of
  // key.tables that this (possibly predicated) view materializes.
  virtual double Perc(const ViewKey& key) = 0;
};

// Standalone $ cost of one plan node (no reuse considered). `left` and
// `right` are the node's children (nullptr where absent); the node's own
// child indices are ignored, so callers may store children anywhere.
double NodeCost(const PlanNode& node, const PlanNode* left,
                const PlanNode* right, CostModel* model);

// Input delta rate `node` imposes on its server (for capacity checks);
// children as for NodeCost.
double NodeLoad(const PlanNode& node, const PlanNode* left,
                const PlanNode* right, CostModel* model);

// NodeCost of plan.nodes[index].
double PlanNodeCost(const SharingPlan& plan, size_t index, CostModel* model);

// Standalone $ cost of a whole plan: the sum of its node costs. This is
// C[P] in the paper's notation when no subexpression is reused.
double PlanCost(const SharingPlan& plan, CostModel* model);

// NodeLoad of plan.nodes[index].
double PlanNodeLoad(const SharingPlan& plan, size_t index, CostModel* model);

}  // namespace dsm

#endif  // DSM_COST_COST_MODEL_H_
