#include "obs/run_report.h"

#include <string>

namespace dsm {
namespace obs {

JsonValue RunReport::ToJson(const RunReportOptions& options) const {
  JsonValue root = JsonValue::Object();
  root.Set("schema_version", JsonValue(schema_version));
  root.Set("seed", JsonValue(seed));
  root.Set("epoch", JsonValue(epoch));
  root.Set("ticks", JsonValue(ticks));
  root.Set("updates_applied", JsonValue(updates_applied));
  root.Set("maintenance_work", JsonValue(maintenance_work));

  JsonValue rec = JsonValue::Object();
  rec.Set("failures", JsonValue(recovery.failures));
  rec.Set("recoveries", JsonValue(recovery.recoveries));
  rec.Set("migrated", JsonValue(recovery.migrated));
  rec.Set("parked_total", JsonValue(recovery.parked));
  rec.Set("readmitted", JsonValue(recovery.readmitted));
  rec.Set("last_event_tick", JsonValue(recovery.last_event_tick));
  rec.Set("migration_cost_delta", JsonValue(recovery.migration_cost_delta));
  rec.Set("parked_now", JsonValue(parked_now));
  root.Set("recovery", std::move(rec));

  JsonValue views = JsonValue::Array();
  for (const auto& [id, size] : view_sizes) {
    JsonValue v = JsonValue::Object();
    v.Set("sharing_id", JsonValue(id));
    v.Set("tuples", JsonValue(size));
    views.Append(std::move(v));
  }
  root.Set("views", std::move(views));

  if (has_costing) {
    JsonValue cj = JsonValue::Object();
    cj.Set("alpha", JsonValue(costing.alpha));
    cj.Set("global_cost", JsonValue(costing.global_cost));
    cj.Set("criteria_satisfied", JsonValue(costing.criteria_satisfied));
    JsonValue sharings = JsonValue::Array();
    for (const auto& [id, ac, lpc] : costing.sharings) {
      JsonValue s = JsonValue::Object();
      s.Set("sharing_id", JsonValue(id));
      s.Set("attributed_cost", JsonValue(ac));
      s.Set("lpc", JsonValue(lpc));
      sharings.Append(std::move(s));
    }
    cj.Set("sharings", std::move(sharings));
    root.Set("costing", std::move(cj));
  }

  root.Set("telemetry", metrics.ToJson(options.include_timings));
  return root;
}

namespace {

Status RequireKeys(const JsonValue& doc,
                   const std::vector<const char*>& keys,
                   const std::string& what) {
  if (!doc.is_object()) {
    return Status::InvalidArgument(what + " is not a JSON object");
  }
  for (const char* key : keys) {
    if (!doc.Has(key)) {
      return Status::InvalidArgument(what + " missing required key '" +
                                     key + "'");
    }
  }
  return Status::OK();
}

Status RequireTelemetry(const JsonValue& doc) {
  const JsonValue* telemetry = doc.Find("telemetry");
  DSM_RETURN_IF_ERROR(
      RequireKeys(*telemetry, {"counters", "gauges"}, "telemetry"));
  return Status::OK();
}

}  // namespace

Status ValidateRunReportJson(const std::string& text) {
  DSM_ASSIGN_OR_RETURN(const JsonValue doc, ParseJson(text));
  DSM_RETURN_IF_ERROR(RequireKeys(
      doc,
      {"schema_version", "seed", "epoch", "ticks", "updates_applied",
       "maintenance_work", "recovery", "views", "telemetry"},
      "run report"));
  DSM_RETURN_IF_ERROR(RequireKeys(
      *doc.Find("recovery"),
      {"failures", "recoveries", "migrated", "parked_total", "readmitted"},
      "recovery section"));
  if (!doc.Find("views")->is_array()) {
    return Status::InvalidArgument("'views' is not an array");
  }
  return RequireTelemetry(doc);
}

Status ValidateBenchReportJson(const std::string& text) {
  DSM_ASSIGN_OR_RETURN(const JsonValue doc, ParseJson(text));
  DSM_RETURN_IF_ERROR(RequireKeys(
      doc, {"schema_version", "bench", "full_scale", "smoke", "sections",
            "telemetry"},
      "bench report"));
  const JsonValue* sections = doc.Find("sections");
  if (!sections->is_array()) {
    return Status::InvalidArgument("'sections' is not an array");
  }
  for (const JsonValue& section : sections->items()) {
    DSM_RETURN_IF_ERROR(RequireKeys(section, {"name", "rows"}, "section"));
    if (!section.Find("rows")->is_array()) {
      return Status::InvalidArgument("section 'rows' is not an array");
    }
  }
  return RequireTelemetry(doc);
}

Status CheckBenchClaims(const std::string& text) {
  DSM_RETURN_IF_ERROR(ValidateBenchReportJson(text));
  DSM_ASSIGN_OR_RETURN(const JsonValue doc, ParseJson(text));
  const JsonValue* bench = doc.Find("bench");
  const std::string name = bench->is_string() ? bench->string_value() : "";
  // The claim one row must hold; an empty string means it holds.
  std::string (*check)(const JsonValue& row) = nullptr;
  if (name == "fig7_fairness") {
    check = [](const JsonValue& row) -> std::string {
      const JsonValue* all = row.Find("faircost_all_criteria");
      if (all == nullptr || !all->is_bool() || !all->bool_value()) {
        return "FAIRCOST misses a fairness criterion";
      }
      const JsonValue* fair = row.Find("alpha_faircost");
      const JsonValue* base = row.Find("alpha_baseline");
      if (fair == nullptr || base == nullptr || !fair->is_number() ||
          !base->is_number() || !(fair->number() >= base->number())) {
        return "alpha_faircost below alpha_baseline";
      }
      return "";
    };
  } else if (name == "fig8_faircost_time") {
    check = [](const JsonValue& row) -> std::string {
      const JsonValue* n = row.Find("warm_lpc_enumerations");
      if (n == nullptr || !n->is_number() || n->number() != 0.0) {
        return "a warm billing pass enumerated plans";
      }
      return "";
    };
  } else {
    return Status::InvalidArgument("no claim checks for bench '" + name +
                                   "'");
  }
  size_t rows = 0;
  for (const JsonValue& section : doc.Find("sections")->items()) {
    for (const JsonValue& row : section.Find("rows")->items()) {
      ++rows;
      const std::string failed = check(row);
      if (!failed.empty()) {
        return Status::FailedPrecondition(
            name + " section '" + section.Find("name")->string_value() +
            "' row " + std::to_string(rows) + ": " + failed);
      }
    }
  }
  if (rows == 0) {
    return Status::InvalidArgument(name + " report has no rows to check");
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace dsm
