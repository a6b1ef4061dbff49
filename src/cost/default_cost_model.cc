#include "cost/default_cost_model.h"

#include <algorithm>

namespace dsm {

double DefaultCostModel::JoinCost(const ViewKey& out, ServerId server,
                                  const ViewKey& left, ServerId left_server,
                                  const ViewKey& right,
                                  ServerId right_server) {
  const CostRates& rates = cluster_->rates();
  const double out_card = estimator_.Cardinality(out);
  const double left_card = estimator_.Cardinality(left);
  const double right_card = estimator_.Cardinality(right);
  const double left_rate = estimator_.DeltaRate(left);
  const double right_rate = estimator_.DeltaRate(right);

  // Network: child delta streams copied to `server` when remote.
  double net_bytes = 0.0;
  if (left_server != server) {
    net_bytes += left_rate * estimator_.TupleBytes(left.tables);
  }
  if (right_server != server) {
    net_bytes += right_rate * estimator_.TupleBytes(right.tables);
  }

  // CPU: each incoming delta tuple probes the opposite side's index and
  // emits its matching output tuples (fanout = |out| / |input side|).
  const double cpu_tuples =
      left_rate * (1.0 + out_card / std::max(1.0, left_card)) +
      right_rate * (1.0 + out_card / std::max(1.0, right_card));

  // Storage: the materialized join view.
  const double storage_bytes = out_card * estimator_.TupleBytes(out.tables);

  const double network = net_bytes * rates.network_per_byte;
  const double cpu = cpu_tuples * rates.cpu_per_tuple;
  const double storage = storage_bytes * rates.storage_per_byte;
  return cpu + network + storage;
}

double DefaultCostModel::FilterCopyCost(const ViewKey& src,
                                        ServerId src_server,
                                        const ViewKey& out,
                                        ServerId out_server) {
  if (src == out && src_server == out_server) return 0.0;
  const CostRates& rates = cluster_->rates();
  const double src_rate = estimator_.DeltaRate(src);

  double net_bytes = 0.0;
  if (src_server != out_server) {
    net_bytes = src_rate * estimator_.TupleBytes(src.tables);
  }
  // Filtering inspects every source delta tuple.
  const double cpu_tuples = src_rate;
  const double storage_bytes =
      estimator_.Cardinality(out) * estimator_.TupleBytes(out.tables);

  const double network = net_bytes * rates.network_per_byte;
  const double cpu = cpu_tuples * rates.cpu_per_tuple;
  const double storage = storage_bytes * rates.storage_per_byte;
  return cpu + network + storage;
}

double DefaultCostModel::LeafCost(TableId table, const ViewKey& key,
                                  ServerId server) {
  if (key.predicates.empty()) return 0.0;  // owner maintains the base table
  const ViewKey base(TableSet::Of(table));
  return FilterCopyCost(base, server, key, server);
}

double DefaultCostModel::DeltaRate(const ViewKey& key) {
  return estimator_.DeltaRate(key);
}

double DefaultCostModel::Perc(const ViewKey& key) {
  if (key.predicates.empty()) return 1.0;
  const ViewKey unpred(key.tables);
  return std::clamp(
      estimator_.Cardinality(key) / estimator_.Cardinality(unpred), 0.0, 1.0);
}

}  // namespace dsm
