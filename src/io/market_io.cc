#include "io/market_io.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <sstream>
#include <string_view>

#include "io/market_ids.h"

namespace dsm {
namespace {

constexpr std::string_view kHeader = "dsm-market v1";

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
Result<std::string> Unescape(std::string_view s) {
  if (s == "%") return std::string();
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out += s[i];
      continue;
    }
    unsigned int byte = 0;
    if (i + 2 >= s.size() ||
        !std::isxdigit(static_cast<unsigned char>(s[i + 1])) ||
        !std::isxdigit(static_cast<unsigned char>(s[i + 2]))) {
      return Status::InvalidArgument("malformed %-escape in name");
    }
    std::from_chars(s.data() + i + 1, s.data() + i + 3, byte, 16);
    out += static_cast<char>(byte);
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

Result<DataType> ParseType(std::string_view tag) {
  if (tag == "i64") return DataType::kInt64;
  if (tag == "f64") return DataType::kDouble;
  if (tag == "str") return DataType::kString;
  return Status::InvalidArgument("unknown column type: " + std::string(tag));
}

// The whitespace-separated fields of one record line, read front to back
// in place.
class Fields {
 public:
  explicit Fields(std::string_view line) : rest_(line) {}

  // The next field; empty once the line is used up.
  std::string_view Next() {
    constexpr std::string_view kSpace = " \t\n\v\f\r";  // std::isspace
    rest_.remove_prefix(
        std::min(rest_.find_first_not_of(kSpace), rest_.size()));
    const std::string_view field =
        rest_.substr(0, rest_.find_first_of(kSpace));
    rest_.remove_prefix(field.size());
    return field;
  }

  // Reads the next field as a word; false when the line is used up.
  bool Read(std::string_view* word) {
    *word = Next();
    return !word->empty();
  }

  // Reads the next field, whole, as a number of type T; false when it is
  // missing, malformed or outside T's range (so "-1" is no unsigned id).
  template <typename T>
  bool Read(T* value) {
    const std::string_view field = Next();
    const char* end = field.data() + field.size();
    const auto [ptr, error] = std::from_chars(field.data(), end, *value);
    return !field.empty() && error == std::errc() && ptr == end;
  }

 private:
  std::string_view rest_;
};

// Walks a text's record lines in place, looking one line ahead. Empty
// lines are skipped.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text) : rest_(text) { Advance(); }

  bool done() const { return done_; }
  // The next line's record kind (its first field); empty at the end.
  std::string_view kind() const { return kind_; }

  // Consumes the next line, which must be a `kind` record, and returns
  // its fields after the kind.
  Result<Fields> Take(std::string_view kind) {
    if (done_ || kind_ != kind) {
      return Status::InvalidArgument("expected " + std::string(kind) +
                                     " record, found '" + std::string(kind_) +
                                     (done_ ? "' (end of input)" : "'"));
    }
    const Fields fields = fields_;
    Advance();
    return fields;
  }

 private:
  void Advance() {
    while (!rest_.empty()) {
      const size_t eol = std::min(rest_.find('\n'), rest_.size());
      const std::string_view line = rest_.substr(0, eol);
      rest_.remove_prefix(std::min(eol + 1, rest_.size()));
      if (line.empty()) continue;
      fields_ = Fields(line);
      kind_ = fields_.Next();
      return;
    }
    done_ = true;
    kind_ = {};
  }

  std::string_view rest_;
  Fields fields_{{}};
  std::string_view kind_;
  bool done_ = false;
};

// Reads a count field as signed first so "-1" is rejected instead of
// wrapping to a huge unsigned value, then bounds it.
Result<size_t> ReadCount(Fields* fields, const char* what,
                         long long max = kMaxRecordCount) {
  long long v = 0;
  if (!fields->Read(&v)) {
    return Status::InvalidArgument(std::string("malformed ") + what);
  }
  if (v < 0 || v > max) {
    return Status::InvalidArgument(std::string("out-of-range ") + what);
  }
  return static_cast<size_t>(v);
}

Result<double> ReadFiniteNonNegative(Fields* fields, const char* what) {
  double v = 0.0;
  if (!fields->Read(&v) || !std::isfinite(v) || v < 0.0) {
    return Status::InvalidArgument(std::string("bad ") + what);
  }
  return v;
}

// A `table` record, then its n `col` records.
Result<TableDef> ReadTable(LineCursor* in) {
  DSM_ASSIGN_OR_RETURN(Fields fields, in->Take("table"));
  TableDef def;
  std::string_view name;
  if (!fields.Read(&name)) {
    return Status::InvalidArgument("malformed table record");
  }
  DSM_ASSIGN_OR_RETURN(def.stats.cardinality,
                       ReadFiniteNonNegative(&fields, "cardinality"));
  DSM_ASSIGN_OR_RETURN(def.stats.update_rate,
                       ReadFiniteNonNegative(&fields, "update rate"));
  DSM_ASSIGN_OR_RETURN(def.stats.tuple_bytes,
                       ReadFiniteNonNegative(&fields, "tuple bytes"));
  DSM_ASSIGN_OR_RETURN(
      const size_t columns,
      ReadCount(&fields, "column count", kMaxColumnsPerTable));
  DSM_ASSIGN_OR_RETURN(def.name, Unescape(name));
  for (size_t i = 0; i < columns; ++i) {
    DSM_ASSIGN_OR_RETURN(Fields col_fields, in->Take("col"));
    ColumnDef col;
    std::string_view col_name;
    std::string_view type_tag;
    if (!col_fields.Read(&col_name) || !col_fields.Read(&type_tag)) {
      return Status::InvalidArgument("malformed col record");
    }
    DSM_ASSIGN_OR_RETURN(
        col.distinct_values,
        ReadFiniteNonNegative(&col_fields, "distinct count"));
    if (!col_fields.Read(&col.min_value) ||
        !col_fields.Read(&col.max_value) || !std::isfinite(col.min_value) ||
        !std::isfinite(col.max_value)) {
      return Status::InvalidArgument("malformed col record");
    }
    DSM_ASSIGN_OR_RETURN(col.name, Unescape(col_name));
    DSM_ASSIGN_OR_RETURN(col.type, ParseType(type_tag));
    def.columns.push_back(std::move(col));
  }
  return def;
}

// `count` `pred` records. Table ids are bounded once the whole block is
// read (CheckIds).
Result<std::vector<Predicate>> ReadPredicates(LineCursor* in,
                                              size_t count) {
  std::vector<Predicate> preds;
  for (size_t i = 0; i < count; ++i) {
    DSM_ASSIGN_OR_RETURN(Fields fields, in->Take("pred"));
    Predicate p;
    int op = 0;
    if (!fields.Read(&p.table) || !fields.Read(&p.column) ||
        !fields.Read(&op) || !fields.Read(&p.value)) {
      return Status::InvalidArgument("malformed pred record");
    }
    if (op < 0 || op > 2) {
      return Status::InvalidArgument("bad predicate op");
    }
    if (!std::isfinite(p.value)) {
      return Status::InvalidArgument("non-finite predicate value");
    }
    p.op = static_cast<CompareOp>(op);
    preds.push_back(p);
  }
  return preds;
}

// A `plan` record, then its n `node` records, each followed by its own
// `pred` records.
Result<SharingPlan> ReadPlan(LineCursor* in) {
  DSM_ASSIGN_OR_RETURN(Fields plan_fields, in->Take("plan"));
  DSM_ASSIGN_OR_RETURN(const size_t nodes,
                       ReadCount(&plan_fields, "plan node count"));
  if (nodes == 0) {
    return Status::InvalidArgument("empty plan");
  }
  SharingPlan plan;
  for (size_t i = 0; i < nodes; ++i) {
    DSM_ASSIGN_OR_RETURN(Fields fields, in->Take("node"));
    PlanNode node;
    int type = 0;
    unsigned long long mask = 0;
    if (!fields.Read(&type) || !fields.Read(&node.server) ||
        !fields.Read(&node.left) || !fields.Read(&node.right) ||
        !fields.Read(&node.base_table) || !fields.Read(&mask)) {
      return Status::InvalidArgument("malformed node record");
    }
    DSM_ASSIGN_OR_RETURN(const size_t preds,
                         ReadCount(&fields, "node predicate count"));
    if (type < 0 || type > 2) {
      return Status::InvalidArgument("bad node type");
    }
    // Children must precede their parent (plans are topological); the
    // tree is checked once the plan is complete.
    const auto index = static_cast<int>(i);
    if (node.left < -1 || node.left >= index || node.right < -1 ||
        node.right >= index) {
      return Status::InvalidArgument("node child index out of range");
    }
    if (mask == 0) {
      return Status::InvalidArgument("node covers no tables");
    }
    node.type = static_cast<PlanNodeType>(type);
    node.key.tables = TableSet(mask);
    DSM_ASSIGN_OR_RETURN(node.key.predicates, ReadPredicates(in, preds));
    NormalizePredicates(&node.key.predicates);
    plan.nodes.push_back(std::move(node));
  }
  return plan;
}

// A `sharing` record, its predicates, then its plan, which must compute
// the sharing.
Result<SharingStateEntry> ReadSharing(LineCursor* in) {
  DSM_ASSIGN_OR_RETURN(Fields fields, in->Take("sharing"));
  SharingStateEntry entry;
  ServerId destination = 0;
  std::string_view buyer;
  unsigned long long mask = 0;
  if (!fields.Read(&entry.id) || !fields.Read(&destination) ||
      !fields.Read(&buyer) || !fields.Read(&mask)) {
    return Status::InvalidArgument("malformed sharing record");
  }
  if (mask == 0) {
    return Status::InvalidArgument("sharing has no member tables");
  }
  DSM_ASSIGN_OR_RETURN(const size_t preds,
                       ReadCount(&fields, "sharing predicate count"));
  DSM_ASSIGN_OR_RETURN(std::string buyer_name, Unescape(buyer));
  DSM_ASSIGN_OR_RETURN(std::vector<Predicate> predicates,
                       ReadPredicates(in, preds));
  entry.sharing = Sharing(TableSet(mask), std::move(predicates),
                          destination, std::move(buyer_name));
  DSM_ASSIGN_OR_RETURN(entry.plan, ReadPlan(in));
  DSM_RETURN_IF_ERROR(CheckPlanComputes(entry.plan, entry.sharing));
  return entry;
}

// kInvalidArgument unless every server id in `entry` is below
// `num_servers` and every table id below `num_tables` (at most 64). Every
// reader runs it on every entry it returns.
Status CheckIds(const SharingStateEntry& entry, size_t num_servers,
                size_t num_tables) {
  const TableSet catalog(num_tables >= TableSet::kMaxTables
                             ? ~0ULL
                             : (1ULL << num_tables) - 1);
  const auto in_catalog = [&](const ViewKey& key) {
    if (!catalog.ContainsAll(key.tables)) return false;
    for (const Predicate& p : key.predicates) {
      if (p.table >= num_tables) return false;
    }
    return true;
  };
  if (entry.sharing.destination() >= num_servers) {
    return Status::InvalidArgument("sharing destination out of range");
  }
  if (!in_catalog(entry.sharing.ResultKey())) {
    return Status::InvalidArgument("sharing table outside the catalog");
  }
  for (const PlanNode& node : entry.plan.nodes) {
    if (node.server >= num_servers) {
      return Status::InvalidArgument("plan node server out of range");
    }
    if (node.base_table >= num_tables || !in_catalog(node.key)) {
      return Status::InvalidArgument("plan node table outside the catalog");
    }
  }
  return Status::OK();
}

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
  LineCursor in(block);
  DSM_ASSIGN_OR_RETURN(SharingStateEntry entry, ReadSharing(&in));
  if (!in.done()) {
    return Status::InvalidArgument("expected exactly one sharing record");
  }
  DSM_RETURN_IF_ERROR(CheckIds(
      entry,
      num_servers == 0 ? std::numeric_limits<size_t>::max() : num_servers,
      TableSet::kMaxTables));
  return entry;
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

namespace io_internal {

Status CheckMarketIds(const MarketState& state) {
  // A sharing reads tables, so a state with sharings needs the catalog
  // that defines them.
  if (!state.sharings.empty() && state.catalog.num_tables() == 0) {
    return Status::InvalidArgument("sharings without table records");
  }
  for (const SharingStateEntry& entry : state.sharings) {
    DSM_RETURN_IF_ERROR(CheckIds(entry, state.cluster.num_servers(),
                                 state.catalog.num_tables()));
  }
  return Status::OK();
}

}  // namespace io_internal

// The header line, the servers, each table with its columns and optional
// placement, then the sharings.
Result<MarketState> MarketStateFromString(const std::string& text) {
  const std::string_view header =
      std::string_view(text).substr(0, text.find('\n'));
  if (header != kHeader) {
    return Status::InvalidArgument("missing dsm-market header");
  }
  LineCursor in(std::string_view(text).substr(header.size()));
  MarketState state;
  while (in.kind() == "server") {
    DSM_ASSIGN_OR_RETURN(Fields fields, in.Take("server"));
    std::string_view name;
    double capacity = 0.0;
    if (!fields.Read(&name)) {
      return Status::InvalidArgument("malformed server record");
    }
    // "inf" is legal: the common case of an uncapped server.
    if (!fields.Read(&capacity) || std::isnan(capacity) || capacity < 0.0) {
      return Status::InvalidArgument("bad server capacity");
    }
    DSM_ASSIGN_OR_RETURN(std::string server_name, Unescape(name));
    state.cluster.AddServer(std::move(server_name), capacity);
  }
  while (in.kind() == "table") {
    DSM_ASSIGN_OR_RETURN(TableDef def, ReadTable(&in));
    DSM_ASSIGN_OR_RETURN(const TableId table,
                         state.catalog.AddTable(std::move(def)));
    if (in.kind() != "place") continue;
    DSM_ASSIGN_OR_RETURN(Fields fields, in.Take("place"));
    DSM_ASSIGN_OR_RETURN(
        const size_t placed,
        ReadCount(&fields, "place table", static_cast<long long>(table)));
    DSM_ASSIGN_OR_RETURN(
        const size_t server,
        ReadCount(&fields, "place server",
                  static_cast<long long>(state.cluster.num_servers()) - 1));
    DSM_RETURN_IF_ERROR(state.cluster.PlaceTable(
        static_cast<TableId>(placed), static_cast<ServerId>(server)));
  }
  while (!in.done()) {
    DSM_ASSIGN_OR_RETURN(SharingStateEntry entry, ReadSharing(&in));
    state.sharings.push_back(std::move(entry));
  }
  DSM_RETURN_IF_ERROR(io_internal::CheckMarketIds(state));
  return state;
}

Result<MarketState> ReadMarketState(std::istream* in) {
  return MarketStateFromString(
      std::string(std::istreambuf_iterator<char>(*in), {}));
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
