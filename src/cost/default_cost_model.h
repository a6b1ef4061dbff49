// DefaultCostModel: analytical cost model in the style of the substrate
// system [9] (Al-Kiswany et al., EDBT 2013).
//
// Resource usage is estimated from catalog statistics (cardinalities,
// update rates, tuple widths) and mapped to dollars with the cluster's
// CostRates, the way IaaS bills map resource consumption to money:
//   cpu      — delta tuples processed and output tuples produced,
//   network  — delta bytes shipped between servers,
//   storage  — bytes of materialized view state.

#ifndef DSM_COST_DEFAULT_COST_MODEL_H_
#define DSM_COST_DEFAULT_COST_MODEL_H_

#include "catalog/catalog.h"
#include "cluster/cluster.h"
#include "cost/cost_model.h"
#include "expr/selectivity.h"

namespace dsm {

class DefaultCostModel : public CostModel {
 public:
  DefaultCostModel(const Catalog* catalog, const Cluster* cluster)
      : catalog_(catalog), cluster_(cluster), estimator_(catalog) {}

  // All estimates are pure functions of the catalog; the estimator's memo
  // only caches them, so answers are independent of query order.
  bool HasPureQueries() const override { return true; }

  double JoinCost(const ViewKey& out, ServerId server, const ViewKey& left,
                  ServerId left_server, const ViewKey& right,
                  ServerId right_server) override;
  double FilterCopyCost(const ViewKey& src, ServerId src_server,
                        const ViewKey& out, ServerId out_server) override;
  double LeafCost(TableId table, const ViewKey& key,
                  ServerId server) override;
  double DeltaRate(const ViewKey& key) override;
  double Perc(const ViewKey& key) override;

  StatsEstimator& estimator() { return estimator_; }

 private:
  const Catalog* catalog_;
  const Cluster* cluster_;
  StatsEstimator estimator_;
};

}  // namespace dsm

#endif  // DSM_COST_DEFAULT_COST_MODEL_H_
