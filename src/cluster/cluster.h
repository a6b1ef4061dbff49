// The cloud infrastructure model: servers rented from an IaaS provider,
// their capacity limits, the dollar rates for resources, and the placement
// of base tables on servers.

#ifndef DSM_CLUSTER_CLUSTER_H_
#define DSM_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "catalog/table_set.h"
#include "common/status.h"

namespace dsm {

using ServerId = uint32_t;

// The server capacity constraint from Definition 4.1, "expressed ... such
// as how many tuples the server can handle per second": an upper bound on
// the total update-tuple rate the views placed on a server may process.
struct Server {
  ServerId id = 0;
  std::string name;
  double capacity_tuples_per_unit = std::numeric_limits<double>::infinity();
  // Liveness: a down server has lost its machine (and every view
  // materialized on it). Placement on a down server is infeasible and its
  // effective capacity is zero until MarkUp() restores it.
  bool up = true;
};

// Dollar prices for cloud resources per time unit, mirroring how IaaS
// providers bill. The DefaultCostModel multiplies resource usage estimates
// by these rates (see src/cost/default_cost_model.h). The defaults are
// calibrated so that for high-update-rate data (the dynamic-data setting
// of the paper) maintenance compute and delta traffic dominate the bill
// and view storage is a secondary term, matching the emphasis of the
// substrate system's cost model [9].
struct CostRates {
  // $ per tuple-comparison of maintenance work.
  double cpu_per_tuple = 1e-6;
  // $ per byte moved between two different servers.
  double network_per_byte = 2e-8;
  // $ per byte of materialized view storage per time unit.
  double storage_per_byte = 1e-11;
};

class Cluster {
 public:
  Cluster() = default;

  // Adds a server and returns its id.
  ServerId AddServer(std::string name,
                     double capacity = std::numeric_limits<double>::infinity());

  size_t num_servers() const { return servers_.size(); }
  const Server& server(ServerId id) const { return servers_[id]; }
  Server& mutable_server(ServerId id) { return servers_[id]; }

  // --- Liveness ------------------------------------------------------------
  // Takes a server down: its capacity is revoked (effective capacity 0)
  // and no plan may place a view on it until MarkUp(). Idempotent.
  Status MarkDown(ServerId id);
  // Brings a server back with its original capacity. Idempotent.
  Status MarkUp(ServerId id);

  bool is_up(ServerId id) const {
    return id < servers_.size() && servers_[id].up;
  }
  // Monotone counter bumped on every liveness transition (MarkDown /
  // MarkUp that actually flips a server). State whose validity depends on
  // which servers are up — e.g. a global-plan evaluation awaiting Commit —
  // compares this against the epoch it was taken at.
  uint64_t liveness_epoch() const { return liveness_epoch_; }
  // Rated capacity while up, 0 while down.
  double effective_capacity(ServerId id) const {
    return is_up(id) ? servers_[id].capacity_tuples_per_unit : 0.0;
  }
  size_t num_live_servers() const { return live_count_; }
  std::vector<ServerId> live_servers() const;

  const CostRates& rates() const { return rates_; }
  void set_rates(CostRates rates) { rates_ = rates; }

  // Assigns table `t` to live on server `s`. A base table has one home
  // server; consumers on other servers receive its delta stream via copy
  // operators (Figure 2 of the paper).
  Status PlaceTable(TableId t, ServerId s);

  // Places tables 0..n-1 round-robin across all servers, as the paper's
  // evaluation does for both the Twitter and the synthetic schemas.
  void PlaceRoundRobin(size_t num_tables);

  // Home server of table `t`; error if unplaced.
  Result<ServerId> HomeOf(TableId t) const;

 private:
  std::vector<Server> servers_;
  std::vector<int64_t> home_;  // home_[table] = server id or -1
  CostRates rates_;
  size_t live_count_ = 0;
  uint64_t liveness_epoch_ = 0;
};

}  // namespace dsm

#endif  // DSM_CLUSTER_CLUSTER_H_
