#include "market/data_market.h"

#include <map>

namespace dsm {

DataMarket::DataMarket(DataMarketOptions options)
    : options_(std::move(options)) {}

DataMarket::~DataMarket() = default;

ServerId DataMarket::AddServer(std::string name, double capacity) {
  return world_.cluster->AddServer(std::move(name), capacity);
}

Result<TableId> DataMarket::RegisterTable(TableDef def, ServerId home,
                                          double data_value,
                                          std::string owner) {
  if (planner_ != nullptr) {
    return Status::InvalidArgument(
        "tables cannot be registered after the first sharing");
  }
  DSM_ASSIGN_OR_RETURN(const TableId id,
                       world_.catalog->AddTable(std::move(def)));
  DSM_RETURN_IF_ERROR(world_.cluster->PlaceTable(id, home));
  table_value_.resize(id + 1, 0.0);
  table_value_[id] = data_value;
  table_owner_.resize(id + 1);
  table_owner_[id] = std::move(owner);
  return id;
}

Status DataMarket::EnsurePlanner() {
  if (planner_ != nullptr) return Status::OK();
  if (world_.cluster->num_servers() == 0) {
    return Status::InvalidArgument("no servers registered");
  }
  if (world_.catalog->num_tables() == 0) {
    return Status::InvalidArgument("no tables registered");
  }
  world_.FillDefaults();
  rig_ = MakeRig(world_, options_.enumerator);
  lpc_ = std::make_unique<LpcCalculator>(rig_.enumerator.get(),
                                         world_.model.get());
  costing_ =
      std::make_unique<CostingSession>(rig_.global_plan.get(), lpc_.get());

  planner_ = MakePlanner(options_.planner, rig_.ctx);
  return Status::OK();
}

Result<DataMarket::SharingReceipt> DataMarket::SubmitSharing(
    const std::vector<std::string>& table_names,
    std::vector<Predicate> predicates, ServerId destination,
    std::string buyer) {
  DSM_RETURN_IF_ERROR(EnsurePlanner());
  if (destination >= world_.cluster->num_servers()) {
    return Status::InvalidArgument("unknown destination server");
  }
  TableSet tables;
  for (const std::string& name : table_names) {
    DSM_ASSIGN_OR_RETURN(const TableId id, world_.catalog->FindTable(name));
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
  receipt.plan = choice.plan.ToString(*world_.catalog);
  receipt.marginal_cost = choice.marginal_cost;
  receipt.reused_identical = choice.reused_identical;
  return receipt;
}

Status DataMarket::CancelSharing(SharingId id) {
  if (rig_.global_plan == nullptr) {
    return Status::NotFound("no sharings submitted yet");
  }
  return rig_.global_plan->RemoveSharing(id);
}

Result<DataMarket::CostReport> DataMarket::ComputeCosts() {
  if (rig_.global_plan == nullptr || rig_.global_plan->num_sharings() == 0) {
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
    const Sharing& sharing = rig_.global_plan->record(id)->sharing;
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
  if (planner_ == nullptr || rig_.global_plan->num_sharings() == 0) {
    return Status::InvalidArgument("no active sharings to re-plan");
  }
  Replanner replanner(planner_->context());
  return replanner.Improve();
}

double DataMarket::TotalOperationalCost() const {
  return rig_.global_plan == nullptr ? 0.0 : rig_.global_plan->TotalCost();
}

size_t DataMarket::num_sharings() const {
  return rig_.global_plan == nullptr ? 0 : rig_.global_plan->num_sharings();
}

}  // namespace dsm
