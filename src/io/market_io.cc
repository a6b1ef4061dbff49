#include "io/market_io.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace dsm {
namespace {

constexpr const char* kHeader = "dsm-market v1";

// Caps on counts read from untrusted input: generous for any real market,
// small enough that a garbled count cannot drive allocation or looping.
constexpr long long kMaxRecordCount = 1LL << 20;
constexpr long long kMaxColumnsPerTable = 4096;

// Names/buyers are %-escaped so every record stays one whitespace-split
// line.
std::string Escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '%' || std::isspace(static_cast<unsigned char>(c))) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "%%%02x",
                    static_cast<unsigned char>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out.empty() ? "%" : out;  // lone '%' encodes the empty string
}

// Inverse of Escape. Every '%' but the lone empty-name token must start a
// two-hex-digit escape.
Result<std::string> Unescape(const std::string& s) {
  if (s == "%") return std::string();
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out += s[i];
      continue;
    }
    if (i + 2 >= s.size() ||
        !std::isxdigit(static_cast<unsigned char>(s[i + 1])) ||
        !std::isxdigit(static_cast<unsigned char>(s[i + 2]))) {
      return Status::InvalidArgument("malformed %-escape in name");
    }
    out += static_cast<char>(std::stoi(s.substr(i + 1, 2), nullptr, 16));
    i += 2;
  }
  return out;
}

const char* TypeTag(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return "i64";
    case DataType::kDouble:
      return "f64";
    case DataType::kString:
      return "str";
  }
  return "i64";
}

Result<DataType> ParseType(const std::string& tag) {
  if (tag == "i64") return DataType::kInt64;
  if (tag == "f64") return DataType::kDouble;
  if (tag == "str") return DataType::kString;
  return Status::InvalidArgument("unknown column type: " + tag);
}

// Reads a count field as signed first so "-1" is rejected instead of
// wrapping to a huge unsigned value, then bounds it.
Result<long long> ReadCount(std::istringstream* fields, const char* what,
                            long long max = kMaxRecordCount) {
  long long v = 0;
  if (!(*fields >> v)) {
    return Status::InvalidArgument(std::string("malformed ") + what);
  }
  if (v < 0 || v > max) {
    return Status::InvalidArgument(std::string("out-of-range ") + what);
  }
  return v;
}

Result<double> ReadFiniteNonNegative(std::istringstream* fields,
                                     const char* what) {
  double v = 0.0;
  if (!(*fields >> v) || !std::isfinite(v) || v < 0.0) {
    return Status::InvalidArgument(std::string("bad ") + what);
  }
  return v;
}

Result<Predicate> ParsePredicate(std::istringstream* line) {
  long long table = 0;
  long long column = 0;
  int op = 0;
  double value = 0.0;
  if (!(*line >> table >> column >> op >> value)) {
    return Status::InvalidArgument("malformed pred record");
  }
  if (table < 0 || table >= TableSet::kMaxTables) {
    return Status::InvalidArgument("predicate table out of range");
  }
  if (column < 0 || column > 0xffff) {
    return Status::InvalidArgument("predicate column out of range");
  }
  if (op < 0 || op > 2) {
    return Status::InvalidArgument("bad predicate op");
  }
  if (!std::isfinite(value)) {
    return Status::InvalidArgument("non-finite predicate value");
  }
  Predicate p;
  p.table = static_cast<TableId>(table);
  p.column = static_cast<uint16_t>(column);
  p.op = static_cast<CompareOp>(op);
  p.value = value;
  return p;
}

// Incremental parser for the "sharing"/"pred"/"plan"/"node" grammar. Both
// the full market-state reader and ParseSharingRecord feed records through
// one instance; entries become visible only once their block is complete
// (predicates, plan and every node fully read).
class SharingBlockParser {
 public:
  explicit SharingBlockParser(size_t num_servers)
      : num_servers_(num_servers) {}

  // Handles one record line. Sets *handled to false when `kind` is not
  // part of the sharing grammar (the caller owns such records).
  Status Feed(const std::string& kind, std::istringstream* fields,
              bool* handled) {
    *handled = true;
    if (kind == "sharing") return BeginSharing(fields);
    if (kind == "pred") return AddPredicate(fields);
    if (kind == "plan") return BeginPlan(fields);
    if (kind == "node") return AddNode(fields);
    *handled = false;
    return Status::OK();
  }

  // Error unless every started block was completed.
  Status Finish() const {
    if (open_) {
      return Status::InvalidArgument("truncated sharing record");
    }
    return Status::OK();
  }

  std::vector<SharingStateEntry>& entries() { return entries_; }

 private:
  Status CheckServer(long long server, const char* what) const {
    if (server < 0 ||
        (num_servers_ != 0 &&
         server >= static_cast<long long>(num_servers_))) {
      return Status::InvalidArgument(std::string(what) +
                                     " server out of range");
    }
    return Status::OK();
  }

  Status BeginSharing(std::istringstream* fields) {
    if (open_) {
      return Status::InvalidArgument("sharing record inside open sharing");
    }
    unsigned long long id = 0;
    long long dest = 0;
    std::string buyer;
    unsigned long long mask = 0;
    if (!(*fields >> id >> dest >> buyer >> mask)) {
      return Status::InvalidArgument("malformed sharing record");
    }
    DSM_RETURN_IF_ERROR(CheckServer(dest, "sharing destination"));
    if (mask == 0) {
      return Status::InvalidArgument("sharing has no member tables");
    }
    DSM_ASSIGN_OR_RETURN(const long long preds,
                         ReadCount(fields, "sharing predicate count"));
    DSM_ASSIGN_OR_RETURN(buyer_, Unescape(buyer));
    open_ = true;
    id_ = id;
    dest_ = static_cast<ServerId>(dest);
    tables_ = TableSet(mask);
    preds_.clear();
    preds_left_ = static_cast<size_t>(preds);
    plan_ = SharingPlan{};
    plan_seen_ = false;
    nodes_left_ = 0;
    node_preds_left_ = 0;
    return MaybeComplete();
  }

  Status AddPredicate(std::istringstream* fields) {
    DSM_ASSIGN_OR_RETURN(const Predicate p, ParsePredicate(fields));
    if (!open_) {
      return Status::InvalidArgument("pred record outside sharing");
    }
    if (preds_left_ > 0) {
      preds_.push_back(p);
      --preds_left_;
    } else if (node_preds_left_ > 0) {
      plan_.nodes.back().key.predicates.push_back(p);
      if (--node_preds_left_ == 0) {
        NormalizePredicates(&plan_.nodes.back().key.predicates);
      }
    } else {
      return Status::InvalidArgument("unexpected pred record");
    }
    return MaybeComplete();
  }

  Status BeginPlan(std::istringstream* fields) {
    if (!open_ || preds_left_ != 0 || plan_seen_) {
      return Status::InvalidArgument("plan record outside sharing");
    }
    DSM_ASSIGN_OR_RETURN(const long long nodes,
                         ReadCount(fields, "plan node count"));
    if (nodes == 0) {
      return Status::InvalidArgument("empty plan");
    }
    plan_seen_ = true;
    nodes_left_ = static_cast<size_t>(nodes);
    plan_.nodes.reserve(nodes_left_);
    return Status::OK();
  }

  Status AddNode(std::istringstream* fields) {
    if (!open_ || !plan_seen_ || nodes_left_ == 0 ||
        node_preds_left_ != 0) {
      return Status::InvalidArgument("unexpected node record");
    }
    int type = 0;
    long long server = 0;
    long long left = 0;
    long long right = 0;
    long long base_table = 0;
    unsigned long long mask = 0;
    if (!(*fields >> type >> server >> left >> right >> base_table >>
          mask)) {
      return Status::InvalidArgument("malformed node record");
    }
    DSM_ASSIGN_OR_RETURN(const long long preds,
                         ReadCount(fields, "node predicate count"));
    if (type < 0 || type > 2) {
      return Status::InvalidArgument("bad node type");
    }
    DSM_RETURN_IF_ERROR(CheckServer(server, "node"));
    // Children must precede their parent (plans are topological); the
    // tree is checked once the plan is complete.
    const long long index = static_cast<long long>(plan_.nodes.size());
    if (left < -1 || left >= index || right < -1 || right >= index) {
      return Status::InvalidArgument("node child index out of range");
    }
    if (base_table < 0 || base_table >= TableSet::kMaxTables) {
      return Status::InvalidArgument("node base table out of range");
    }
    if (mask == 0) {
      return Status::InvalidArgument("node covers no tables");
    }
    PlanNode node;
    node.type = static_cast<PlanNodeType>(type);
    node.server = static_cast<ServerId>(server);
    node.left = static_cast<int>(left);
    node.right = static_cast<int>(right);
    node.base_table = static_cast<TableId>(base_table);
    node.key.tables = TableSet(mask);
    plan_.nodes.push_back(std::move(node));
    --nodes_left_;
    node_preds_left_ = static_cast<size_t>(preds);
    return MaybeComplete();
  }

  // Publishes the open block once it is complete, if its plan computes
  // its sharing.
  Status MaybeComplete() {
    if (!open_ || preds_left_ != 0 || !plan_seen_ || nodes_left_ != 0 ||
        node_preds_left_ != 0) {
      return Status::OK();
    }
    SharingStateEntry entry;
    entry.id = id_;
    entry.sharing = Sharing(tables_, preds_, dest_, buyer_);
    entry.plan = std::move(plan_);
    open_ = false;
    DSM_RETURN_IF_ERROR(CheckPlanComputes(entry.plan, entry.sharing));
    entries_.push_back(std::move(entry));
    return Status::OK();
  }

  size_t num_servers_;
  std::vector<SharingStateEntry> entries_;

  bool open_ = false;
  SharingId id_ = 0;
  ServerId dest_ = 0;
  std::string buyer_;
  TableSet tables_;
  std::vector<Predicate> preds_;
  size_t preds_left_ = 0;
  SharingPlan plan_;
  bool plan_seen_ = false;
  size_t nodes_left_ = 0;
  size_t node_preds_left_ = 0;
};

void WritePredicates(const std::vector<Predicate>& preds,
                     std::ostream* out) {
  for (const Predicate& p : preds) {
    *out << "pred " << p.table << ' ' << p.column << ' '
         << static_cast<int>(p.op) << ' ' << p.value << '\n';
  }
}

}  // namespace

void WriteSharingRecord(SharingId id, const Sharing& sharing,
                        const SharingPlan& plan, std::ostream* out) {
  *out << "sharing " << id << ' ' << sharing.destination() << ' '
       << Escape(sharing.buyer()) << ' ' << sharing.tables().mask() << ' '
       << sharing.predicates().size() << '\n';
  WritePredicates(sharing.predicates(), out);
  *out << "plan " << plan.nodes.size() << '\n';
  for (const PlanNode& n : plan.nodes) {
    *out << "node " << static_cast<int>(n.type) << ' ' << n.server << ' '
         << n.left << ' ' << n.right << ' ' << n.base_table << ' '
         << n.key.tables.mask() << ' ' << n.key.predicates.size() << '\n';
    WritePredicates(n.key.predicates, out);
  }
}

Result<SharingStateEntry> ParseSharingRecord(const std::string& block,
                                             size_t num_servers) {
  SharingBlockParser parser(num_servers);
  std::istringstream in(block);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    bool handled = false;
    DSM_RETURN_IF_ERROR(parser.Feed(kind, &fields, &handled));
    if (!handled) {
      return Status::InvalidArgument("unknown record kind: " + kind);
    }
  }
  DSM_RETURN_IF_ERROR(parser.Finish());
  if (parser.entries().size() != 1) {
    return Status::InvalidArgument("expected exactly one sharing record");
  }
  return std::move(parser.entries().front());
}

Status WriteMarketState(const Catalog& catalog, const Cluster& cluster,
                        const GlobalPlan* global_plan, std::ostream* out) {
  // 17 significant digits round-trip every finite double exactly.
  out->precision(17);
  *out << kHeader << '\n';

  for (ServerId s = 0; s < cluster.num_servers(); ++s) {
    const Server& server = cluster.server(s);
    *out << "server " << Escape(server.name) << ' '
         << server.capacity_tuples_per_unit << '\n';
  }

  for (TableId t = 0; t < catalog.num_tables(); ++t) {
    const TableDef& def = catalog.table(t);
    *out << "table " << Escape(def.name) << ' ' << def.stats.cardinality
         << ' ' << def.stats.update_rate << ' ' << def.stats.tuple_bytes
         << ' ' << def.columns.size() << '\n';
    for (const ColumnDef& col : def.columns) {
      *out << "col " << Escape(col.name) << ' ' << TypeTag(col.type) << ' '
           << col.distinct_values << ' ' << col.min_value << ' '
           << col.max_value << '\n';
    }
    const auto home = cluster.HomeOf(t);
    if (home.ok()) {
      *out << "place " << t << ' ' << *home << '\n';
    }
  }

  if (global_plan != nullptr) {
    for (const SharingId id : global_plan->sharing_ids()) {
      const GlobalPlan::SharingRecord* rec = global_plan->record(id);
      WriteSharingRecord(id, rec->sharing, rec->plan, out);
    }
  }
  return out->good() ? Status::OK() : Status::Internal("stream write failed");
}

Result<std::string> MarketStateToString(const Catalog& catalog,
                                        const Cluster& cluster,
                                        const GlobalPlan* global_plan) {
  std::ostringstream out;
  DSM_RETURN_IF_ERROR(WriteMarketState(catalog, cluster, global_plan, &out));
  return out.str();
}

Result<MarketState> ReadMarketState(std::istream* in) {
  MarketState state;
  std::string line;
  if (!std::getline(*in, line) || line != kHeader) {
    return Status::InvalidArgument("missing dsm-market header");
  }

  TableDef pending_table;
  size_t pending_columns = 0;
  bool table_open = false;
  auto flush_table = [&]() -> Status {
    if (!table_open) return Status::OK();
    if (pending_table.columns.size() != pending_columns) {
      return Status::InvalidArgument("table column count mismatch");
    }
    if (state.catalog.num_tables() >=
        static_cast<size_t>(TableSet::kMaxTables)) {
      return Status::InvalidArgument("too many tables");
    }
    DSM_RETURN_IF_ERROR(
        state.catalog.AddTable(std::move(pending_table)).status());
    pending_table = TableDef();
    table_open = false;
    return Status::OK();
  };

  SharingBlockParser sharings(/*num_servers=*/0);
  bool any_sharing_seen = false;

  while (std::getline(*in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;

    if (kind == "server") {
      DSM_RETURN_IF_ERROR(flush_table());
      std::string name;
      std::string capacity_text;
      if (!(fields >> name >> capacity_text)) {
        return Status::InvalidArgument("malformed server record");
      }
      // strtod (unlike istream extraction) accepts "inf" — the common
      // case of an uncapped server.
      char* end = nullptr;
      const double capacity = std::strtod(capacity_text.c_str(), &end);
      if (end == capacity_text.c_str() || *end != '\0' ||
          std::isnan(capacity) || capacity < 0.0) {
        return Status::InvalidArgument("bad server capacity");
      }
      if (any_sharing_seen) {
        return Status::InvalidArgument("server record after sharings");
      }
      DSM_ASSIGN_OR_RETURN(std::string server_name, Unescape(name));
      state.cluster.AddServer(std::move(server_name), capacity);
    } else if (kind == "table") {
      DSM_RETURN_IF_ERROR(flush_table());
      std::string name;
      if (!(fields >> name)) {
        return Status::InvalidArgument("malformed table record");
      }
      DSM_ASSIGN_OR_RETURN(pending_table.stats.cardinality,
                           ReadFiniteNonNegative(&fields, "cardinality"));
      DSM_ASSIGN_OR_RETURN(pending_table.stats.update_rate,
                           ReadFiniteNonNegative(&fields, "update rate"));
      DSM_ASSIGN_OR_RETURN(pending_table.stats.tuple_bytes,
                           ReadFiniteNonNegative(&fields, "tuple bytes"));
      DSM_ASSIGN_OR_RETURN(
          const long long columns,
          ReadCount(&fields, "column count", kMaxColumnsPerTable));
      pending_columns = static_cast<size_t>(columns);
      DSM_ASSIGN_OR_RETURN(pending_table.name, Unescape(name));
      table_open = true;
    } else if (kind == "col") {
      if (!table_open) {
        return Status::InvalidArgument("col record outside table");
      }
      if (pending_table.columns.size() >= pending_columns) {
        return Status::InvalidArgument("more col records than declared");
      }
      std::string name;
      std::string type_tag;
      ColumnDef col;
      if (!(fields >> name >> type_tag)) {
        return Status::InvalidArgument("malformed col record");
      }
      DSM_ASSIGN_OR_RETURN(col.distinct_values,
                           ReadFiniteNonNegative(&fields, "distinct count"));
      if (!(fields >> col.min_value >> col.max_value) ||
          !std::isfinite(col.min_value) || !std::isfinite(col.max_value)) {
        return Status::InvalidArgument("malformed col record");
      }
      DSM_ASSIGN_OR_RETURN(col.name, Unescape(name));
      DSM_ASSIGN_OR_RETURN(col.type, ParseType(type_tag));
      pending_table.columns.push_back(std::move(col));
    } else if (kind == "place") {
      DSM_RETURN_IF_ERROR(flush_table());
      DSM_ASSIGN_OR_RETURN(
          const long long table,
          ReadCount(&fields, "place table", TableSet::kMaxTables - 1));
      DSM_ASSIGN_OR_RETURN(
          const long long server,
          ReadCount(&fields, "place server",
                    static_cast<long long>(state.cluster.num_servers()) -
                        1));
      DSM_RETURN_IF_ERROR(state.cluster.PlaceTable(
          static_cast<TableId>(table), static_cast<ServerId>(server)));
    } else {
      bool handled = false;
      if (kind == "sharing") {
        DSM_RETURN_IF_ERROR(flush_table());
        any_sharing_seen = true;
      }
      DSM_RETURN_IF_ERROR(sharings.Feed(kind, &fields, &handled));
      if (!handled) {
        return Status::InvalidArgument("unknown record kind: " + kind);
      }
    }
  }
  DSM_RETURN_IF_ERROR(flush_table());
  DSM_RETURN_IF_ERROR(sharings.Finish());
  state.sharings = std::move(sharings.entries());

  // Server ids inside sharing blocks are validated against the final
  // cluster (the parser above runs before all servers are known only when
  // the file is malformed; writers emit servers first).
  for (const SharingStateEntry& entry : state.sharings) {
    if (entry.sharing.destination() >= state.cluster.num_servers()) {
      return Status::InvalidArgument("sharing destination out of range");
    }
    for (const PlanNode& node : entry.plan.nodes) {
      if (node.server >= state.cluster.num_servers()) {
        return Status::InvalidArgument("plan node server out of range");
      }
    }
  }
  return state;
}

Result<MarketState> MarketStateFromString(const std::string& text) {
  std::istringstream in(text);
  return ReadMarketState(&in);
}

Status RestoreGlobalPlan(const MarketState& state, GlobalPlan* global_plan) {
  if (global_plan->num_sharings() != 0) {
    return Status::InvalidArgument("global plan must be empty");
  }
  for (const SharingStateEntry& entry : state.sharings) {
    DSM_RETURN_IF_ERROR(
        global_plan->AddSharing(entry.id, entry.sharing, entry.plan)
            .status());
  }
  return Status::OK();
}

}  // namespace dsm
