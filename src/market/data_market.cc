#include "market/data_market.h"

#include <map>

#include "online/greedy.h"
#include "online/managed_risk.h"
#include "online/normalize.h"

namespace dsm {

DataMarket::DataMarket(DataMarketOptions options)
    : options_(std::move(options)) {
  model_ = std::make_unique<DefaultCostModel>(&catalog_, &cluster_);
}

DataMarket::~DataMarket() = default;

ServerId DataMarket::AddServer(std::string name, double capacity) {
  return cluster_.AddServer(std::move(name), capacity);
}

Result<TableId> DataMarket::RegisterTable(TableDef def, ServerId home,
                                          double data_value,
                                          std::string owner) {
  if (planner_ != nullptr) {
    return Status::InvalidArgument(
        "tables cannot be registered after the first sharing");
  }
  DSM_ASSIGN_OR_RETURN(const TableId id, catalog_.AddTable(std::move(def)));
  DSM_RETURN_IF_ERROR(cluster_.PlaceTable(id, home));
  table_value_.resize(id + 1, 0.0);
  table_value_[id] = data_value;
  table_owner_.resize(id + 1);
  table_owner_[id] = std::move(owner);
  model_->estimator().InvalidateCache();
  return id;
}

Status DataMarket::EnsurePlanner() {
  if (planner_ != nullptr) return Status::OK();
  if (cluster_.num_servers() == 0) {
    return Status::InvalidArgument("no servers registered");
  }
  if (catalog_.num_tables() == 0) {
    return Status::InvalidArgument("no tables registered");
  }
  graph_ = std::make_unique<JoinGraph>(JoinGraph::FromCatalog(catalog_));
  enumerator_ = std::make_unique<PlanEnumerator>(
      &catalog_, &cluster_, graph_.get(), model_.get(), options_.enumerator);
  global_plan_ = std::make_unique<GlobalPlan>(&cluster_, model_.get());
  lpc_ = std::make_unique<LpcCalculator>(enumerator_.get(), model_.get());
  costing_ = std::make_unique<CostingSession>(global_plan_.get(), lpc_.get());

  const PlannerContext ctx{&catalog_,    &cluster_,
                           graph_.get(), model_.get(),
                           global_plan_.get(), enumerator_.get()};

  switch (options_.planner) {
    case DataMarketOptions::Planner::kGreedy:
      planner_ = std::make_unique<GreedyPlanner>(ctx);
      break;
    case DataMarketOptions::Planner::kNormalize:
      planner_ = std::make_unique<NormalizePlanner>(ctx);
      break;
    case DataMarketOptions::Planner::kManagedRisk:
      planner_ = std::make_unique<ManagedRiskPlanner>(ctx);
      break;
  }
  return Status::OK();
}

Result<DataMarket::SharingReceipt> DataMarket::SubmitSharing(
    const std::vector<std::string>& table_names,
    std::vector<Predicate> predicates, ServerId destination,
    std::string buyer) {
  DSM_RETURN_IF_ERROR(EnsurePlanner());
  if (destination >= cluster_.num_servers()) {
    return Status::InvalidArgument("unknown destination server");
  }
  TableSet tables;
  for (const std::string& name : table_names) {
    DSM_ASSIGN_OR_RETURN(const TableId id, catalog_.FindTable(name));
    tables.Add(id);
  }
  if (tables.empty()) {
    return Status::InvalidArgument("sharing lists no tables");
  }
  for (const Predicate& p : predicates) {
    if (!tables.Contains(p.table)) {
      return Status::InvalidArgument(
          "predicate references a table outside the sharing");
    }
  }
  const Sharing sharing(tables, std::move(predicates), destination,
                        std::move(buyer));
  DSM_ASSIGN_OR_RETURN(const PlanChoice choice,
                       planner_->ProcessSharing(sharing));
  SharingReceipt receipt;
  receipt.id = choice.id;
  receipt.plan = choice.plan.ToString(catalog_);
  receipt.marginal_cost = choice.marginal_cost;
  receipt.reused_identical = choice.reused_identical;
  return receipt;
}

Status DataMarket::CancelSharing(SharingId id) {
  if (global_plan_ == nullptr) {
    return Status::NotFound("no sharings submitted yet");
  }
  return global_plan_->RemoveSharing(id);
}

Result<DataMarket::CostReport> DataMarket::ComputeCosts() {
  if (global_plan_ == nullptr || global_plan_->num_sharings() == 0) {
    return Status::InvalidArgument("no active sharings to cost");
  }
  DSM_ASSIGN_OR_RETURN(const CostingSession::Snapshot bill,
                       costing_->Refresh());

  CostReport report;
  report.alpha = bill.alpha;
  report.total_cost = bill.global_cost;
  report.criteria_satisfied = bill.criteria_satisfied;
  report.sharings.reserve(bill.ac.size());
  std::map<std::string, double> revenue;
  for (const auto& [id, ac] : bill.ac) {
    const Sharing& sharing = global_plan_->record(id)->sharing;
    SharingCost cost;
    cost.id = id;
    cost.buyer = sharing.buyer();
    cost.attributed_cost = ac;
    cost.lpc = bill.lpc.at(id);
    for (const TableId t : sharing.tables().ToVector()) {
      cost.data_value += table_value_[t];
      if (t < table_owner_.size() && !table_owner_[t].empty()) {
        revenue[table_owner_[t]] += table_value_[t];
      }
    }
    cost.price = cost.data_value + options_.price_margin * ac;
    report.sharings.push_back(std::move(cost));
  }
  report.owner_revenue.reserve(revenue.size());
  for (auto& [owner, total] : revenue) {
    report.owner_revenue.push_back(OwnerRevenue{owner, total});
  }
  return report;
}

Result<ReplanReport> DataMarket::ReplanExistingSharings() {
  if (planner_ == nullptr || global_plan_->num_sharings() == 0) {
    return Status::InvalidArgument("no active sharings to re-plan");
  }
  Replanner replanner(planner_->context());
  return replanner.Improve();
}

double DataMarket::TotalOperationalCost() const {
  return global_plan_ == nullptr ? 0.0 : global_plan_->TotalCost();
}

size_t DataMarket::num_sharings() const {
  return global_plan_ == nullptr ? 0 : global_plan_->num_sharings();
}

}  // namespace dsm
