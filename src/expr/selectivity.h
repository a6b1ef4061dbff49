// StatsEstimator: cardinality, selectivity, update-rate and width estimates
// for arbitrary view keys, derived from catalog statistics.
//
// These estimates feed the DefaultCostModel and the perc_s(P) weighting of
// Algorithm 2 (the fraction of a subexpression's tuples a predicated plan
// node materializes). Classic System-R style assumptions are used:
// attribute-value independence, uniform value distributions, and
// containment of value sets for join selectivity. The join-cardinality
// memo is unlocked: the estimator is queried only through a cost model,
// and every cost-model caller (enumeration, admission, costing) runs
// single-threaded.

#ifndef DSM_EXPR_SELECTIVITY_H_
#define DSM_EXPR_SELECTIVITY_H_

#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "expr/predicate.h"
#include "expr/view_key.h"

namespace dsm {

class StatsEstimator {
 public:
  explicit StatsEstimator(const Catalog* catalog) : catalog_(catalog) {}

  // Fraction of a table's tuples satisfying `pred`, in (0, 1].
  double PredicateSelectivity(const Predicate& pred) const;

  // Product of the member predicates' selectivities (independence).
  double CombinedSelectivity(const std::vector<Predicate>& preds) const;

  // Estimated number of tuples in the view. Memoized per key; memoized
  // values are pure functions of the catalog. Not thread-safe.
  double Cardinality(const ViewKey& key);

  // Estimated update tuples per time unit flowing *into* the view, i.e.
  // the delta-stream rate its maintenance must process. An update to base
  // table t produces on average |view| / |t| derived deltas.
  double DeltaRate(const ViewKey& key);

  // Width in bytes of a view tuple (join concatenates member tuples).
  double TupleBytes(TableSet tables) const;

  // Drops memoized values (call after catalog statistics change).
  void InvalidateCache();

 private:
  // Cardinality of the unpredicated natural join of `tables`.
  double JoinCardinality(TableSet tables);

  const Catalog* catalog_;
  std::unordered_map<TableSet, double, TableSetHash> join_card_cache_;
};

}  // namespace dsm

#endif  // DSM_EXPR_SELECTIVITY_H_
