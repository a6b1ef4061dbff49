// DataMarket: the service-provider facade.
//
// Data owners register tables (with the monetary value they ask for);
// buyers submit dynamic data sharings as ad-hoc queries. The market plans
// each sharing online (MANAGEDRISK by default), maintains the global plan,
// and bills operational costs fairly with FAIRCOST through a
// CostingSession, which also bills during Lemma 5.2's transient and
// reports it (CostReport::criteria_satisfied). Prices combine
// the owners' data values with the attributed operational cost; mapping
// cost to final price beyond a linear margin is the economics problem the
// paper leaves external.

#ifndef DSM_MARKET_DATA_MARKET_H_
#define DSM_MARKET_DATA_MARKET_H_

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "cluster/cluster.h"
#include "common/status.h"
#include "costing/costing_session.h"
#include "costing/lpc.h"
#include "globalplan/global_plan.h"
#include "market/rig.h"
#include "online/planner.h"
#include "online/replanner.h"
#include "plan/enumerator.h"
#include "sharing/sharing.h"
#include "workload/scenario.h"

namespace dsm {

struct DataMarketOptions {
  PlannerKind planner = PlannerKind::kManagedRisk;
  EnumeratorOptions enumerator;
  // price = Σ member tables' data value + price_margin × attributed cost.
  double price_margin = 1.2;
};

class DataMarket {
 public:
  DataMarket() : DataMarket(DataMarketOptions{}) {}
  explicit DataMarket(DataMarketOptions options);
  ~DataMarket();

  DataMarket(const DataMarket&) = delete;
  DataMarket& operator=(const DataMarket&) = delete;

  // --- Provider setup -----------------------------------------------------
  ServerId AddServer(std::string name,
                     double capacity =
                         std::numeric_limits<double>::infinity());

  // A data owner offers a table, hosted on `home`, asking `data_value`
  // dollars per time unit for access. Tables cannot be added once the
  // first sharing has been submitted (the join graph is then frozen).
  Result<TableId> RegisterTable(TableDef def, ServerId home,
                                double data_value = 0.0,
                                std::string owner = "");

  // --- Buyers -------------------------------------------------------------
  struct SharingReceipt {
    SharingId id = 0;
    std::string plan;            // human-readable chosen plan
    double marginal_cost = 0.0;  // $ added to the provider's bill
    bool reused_identical = false;
  };

  // Submits the sharing ⋈(table_names) filtered by `predicates`, delivered
  // to `destination`. Returns kCapacityExceeded if it must be rejected.
  Result<SharingReceipt> SubmitSharing(
      const std::vector<std::string>& table_names,
      std::vector<Predicate> predicates, ServerId destination,
      std::string buyer);

  Status CancelSharing(SharingId id);

  // --- Costing & pricing ----------------------------------------------------
  struct SharingCost {
    SharingId id = 0;
    std::string buyer;
    double attributed_cost = 0.0;  // AC(S), FAIRCOST
    double lpc = 0.0;
    double data_value = 0.0;  // Σ owner-asked values of member tables
    double price = 0.0;       // data_value + margin × AC
  };
  // Revenue a data owner earns from the active sharings: each sharing pays
  // every member table's asked value, so an owner's revenue is the sum of
  // their tables' values over the sharings that include them (the simple
  // per-table split of [20]'s multi-seller revenue-sharing question).
  struct OwnerRevenue {
    std::string owner;
    double revenue = 0.0;
  };

  struct CostReport {
    std::vector<SharingCost> sharings;
    std::vector<OwnerRevenue> owner_revenue;
    double alpha = 0.0;
    double total_cost = 0.0;
    // False while risk investments exceed Σ LPC (Lemma 5.2's transient);
    // the ACs are then LPCs scaled to cover cost(GP).
    bool criteria_satisfied = true;
  };

  // Refreshes the costing session (FAIRCOST over the current global plan)
  // and prices the result. ACs of existing sharings may change as new
  // sharings arrive (Section 5) but never exceed LPC.
  Result<CostReport> ComputeCosts();

  // Re-plans existing sharings against the current global plan (Section
  // 7's first future-work item); buyers keep receiving the same data.
  // Returns the cost before/after and the number of plans changed.
  Result<ReplanReport> ReplanExistingSharings();

  double TotalOperationalCost() const;
  size_t num_sharings() const;
  const Catalog& catalog() const { return *world_.catalog; }
  const Cluster& cluster() const { return *world_.cluster; }
  const GlobalPlan& global_plan() const { return *rig_.global_plan; }

 private:
  Status EnsurePlanner();

  DataMarketOptions options_;
  // Registered tables and servers; the join graph and the analytical cost
  // model are added with the plan state, at the first sharing.
  Scenario world_;
  std::vector<double> table_value_;
  std::vector<std::string> table_owner_;

  Rig rig_;
  std::unique_ptr<OnlinePlanner> planner_;
  std::unique_ptr<LpcCalculator> lpc_;
  std::unique_ptr<CostingSession> costing_;
};

}  // namespace dsm

#endif  // DSM_MARKET_DATA_MARKET_H_
