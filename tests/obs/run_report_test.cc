#include "obs/run_report.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "market/simulation.h"
#include "obs/trace.h"
#include "workload/twitter.h"

namespace dsm {
namespace obs {
namespace {

TableSet TS(std::initializer_list<TableId> ids) {
  TableSet s;
  for (const TableId id : ids) s.Add(id);
  return s;
}

class RunReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto tables = BuildTwitterCatalog(&catalog_);
    ASSERT_TRUE(tables.ok());
    tables_ = *tables;
  }

  // Runs a fresh, identically-configured simulation and returns its report
  // text. The global registry accumulates across the whole process, so it
  // is reset first — a report is only reproducible from a clean registry.
  std::string SeededReportText(uint64_t seed, bool include_timings) {
    MetricsRegistry::Global().Reset();
    Tracer::Global().Clear();
    MarketSimulation sim(&catalog_, seed);
    EXPECT_TRUE(
        sim.AddBuyerView(1, ViewKey(TS({tables_.users, tables_.tweets})))
            .ok());
    EXPECT_TRUE(
        sim.AddBuyerView(2, ViewKey(TS({tables_.tweets, tables_.curloc})))
            .ok());
    EXPECT_TRUE(sim.Run(/*ticks=*/6, /*scale=*/0.05).ok());
    RunReportOptions options;
    options.include_timings = include_timings;
    return sim.BuildRunReport().ToJsonText(options);
  }

  Catalog catalog_;
  TwitterTables tables_;
};

TEST_F(RunReportTest, ReportCarriesSimulationOutcome) {
  MetricsRegistry::Global().Reset();
  MarketSimulation sim(&catalog_, 91);
  ASSERT_TRUE(
      sim.AddBuyerView(1, ViewKey(TS({tables_.users, tables_.tweets})))
          .ok());
  ASSERT_TRUE(sim.Run(/*ticks=*/4, /*scale=*/0.05).ok());
  const RunReport report = sim.BuildRunReport();
  EXPECT_EQ(report.schema_version, 1);
  EXPECT_EQ(report.seed, 91u);
  EXPECT_EQ(report.epoch, 1);
  EXPECT_EQ(report.ticks, 4);
  EXPECT_EQ(report.updates_applied, sim.updates_applied());
  ASSERT_EQ(report.view_sizes.size(), 1u);
  EXPECT_EQ(report.view_sizes[0].first, 1u);
  EXPECT_GE(report.view_sizes[0].second, 0);
  // The instrumented delta engine must have counted every delta tuple the
  // simulation streamed (registry was reset just before this run).
  ASSERT_TRUE(report.metrics.counters.count("dsm.maintain.delta_tuples"));
  EXPECT_EQ(report.metrics.counters.at("dsm.maintain.delta_tuples"),
            sim.updates_applied());
  // One buyer view: one live engine node.
  ASSERT_TRUE(report.metrics.gauges.count("dsm.maintain.view_nodes"));
  EXPECT_EQ(report.metrics.gauges.at("dsm.maintain.view_nodes"), 1.0);
}

TEST_F(RunReportTest, EpochCountsCompletedRuns) {
  MarketSimulation sim(&catalog_, 92);
  ASSERT_TRUE(
      sim.AddBuyerView(1, ViewKey(TS({tables_.users, tables_.tweets})))
          .ok());
  ASSERT_TRUE(sim.Run(/*ticks=*/2, /*scale=*/0.05).ok());
  ASSERT_TRUE(sim.Run(/*ticks=*/2, /*scale=*/0.05).ok());
  EXPECT_EQ(sim.epoch(), 2);
  EXPECT_EQ(sim.BuildRunReport().epoch, 2);
}

TEST_F(RunReportTest, JsonValidatesAgainstSchema) {
  const std::string text = SeededReportText(123, /*include_timings=*/true);
  const Status status = ValidateRunReportJson(text);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST_F(RunReportTest, GoldenReportIsByteStableAcrossIdenticalRuns) {
  // Timing histograms are the only nondeterministic content; with them
  // excluded, two identically-seeded runs serialize byte-for-byte equal.
  const std::string first = SeededReportText(777, /*include_timings=*/false);
  const std::string second = SeededReportText(777, /*include_timings=*/false);
  EXPECT_EQ(first, second);
  EXPECT_TRUE(ValidateRunReportJson(first).ok());
  // Sanity: the stable document still carries real content.
  const auto doc = ParseJson(first);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("seed")->int_value(), 777);
  EXPECT_GT(doc->Find("updates_applied")->int_value(), 0);
  EXPECT_EQ(doc->Find("views")->items().size(), 2u);
  EXPECT_FALSE(doc->Find("telemetry")->Has("histograms"));
}

TEST_F(RunReportTest, DifferentSeedsDiverge) {
  const std::string a = SeededReportText(1001, /*include_timings=*/false);
  const std::string b = SeededReportText(1002, /*include_timings=*/false);
  EXPECT_NE(a, b);
}

TEST_F(RunReportTest, TimingsIncludedByDefault) {
  const std::string text = SeededReportText(55, /*include_timings=*/true);
  const auto doc = ParseJson(text);
  ASSERT_TRUE(doc.ok());
  const JsonValue* telemetry = doc->Find("telemetry");
  ASSERT_TRUE(telemetry->Has("histograms"));
  // The delta engine's apply timer must have fired during the run.
  EXPECT_TRUE(telemetry->Find("histograms")->Has("dsm.maintain.apply_ms"));
}

TEST(RunReportSchemaTest, CostingSectionIsOptionalButSerialized) {
  RunReport report;
  report.seed = 5;
  EXPECT_FALSE(report.ToJson().Has("costing"));

  RunReport::Costing costing;
  costing.alpha = 0.5;
  costing.global_cost = 12.0;
  costing.criteria_satisfied = false;
  costing.sharings.emplace_back(7, 8.0, 9.0);
  report.SetCosting(costing);
  const JsonValue doc = report.ToJson();
  ASSERT_TRUE(doc.Has("costing"));
  const JsonValue* cj = doc.Find("costing");
  EXPECT_EQ(cj->Find("alpha")->number(), 0.5);
  EXPECT_FALSE(cj->Find("criteria_satisfied")->bool_value());
  ASSERT_EQ(cj->Find("sharings")->items().size(), 1u);
  EXPECT_EQ(cj->Find("sharings")->items()[0].Find("sharing_id")->int_value(),
            7);
  // The attached bill keeps the report schema-valid.
  EXPECT_TRUE(ValidateRunReportJson(report.ToJsonText()).ok());
}

TEST(RunReportSchemaTest, ValidatorRejectsMissingKeys) {
  EXPECT_FALSE(ValidateRunReportJson("not json").ok());
  EXPECT_FALSE(ValidateRunReportJson("{}").ok());
  EXPECT_FALSE(ValidateRunReportJson("[1,2]").ok());
  // Strip one required key from an otherwise-valid report.
  RunReport report;
  JsonValue doc = report.ToJson();
  doc.members().erase("recovery");
  EXPECT_FALSE(ValidateRunReportJson(doc.Dump()).ok());
}

TEST(RunReportSchemaTest, BenchValidatorChecksSections) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema_version", 1);
  doc.Set("bench", "demo");
  doc.Set("full_scale", true);
  doc.Set("smoke", false);
  JsonValue telemetry = JsonValue::Object();
  telemetry.Set("counters", JsonValue::Object());
  telemetry.Set("gauges", JsonValue::Object());
  doc.Set("telemetry", std::move(telemetry));

  JsonValue section = JsonValue::Object();
  section.Set("name", "s1");
  section.Set("rows", JsonValue::Array());
  JsonValue sections = JsonValue::Array();
  sections.Append(std::move(section));
  doc.Set("sections", std::move(sections));
  EXPECT_TRUE(ValidateBenchReportJson(doc.Dump()).ok())
      << ValidateBenchReportJson(doc.Dump()).ToString();

  // A section without rows is rejected.
  JsonValue bad_section = JsonValue::Object();
  bad_section.Set("name", "s2");
  doc.members()["sections"].Append(std::move(bad_section));
  EXPECT_FALSE(ValidateBenchReportJson(doc.Dump()).ok());
}

// A bench document with one section holding `rows`.
std::string BenchDoc(const std::string& bench, std::vector<JsonValue> rows) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema_version", 1);
  doc.Set("bench", bench);
  doc.Set("full_scale", false);
  doc.Set("smoke", true);
  JsonValue telemetry = JsonValue::Object();
  telemetry.Set("counters", JsonValue::Object());
  telemetry.Set("gauges", JsonValue::Object());
  doc.Set("telemetry", std::move(telemetry));
  JsonValue section = JsonValue::Object();
  section.Set("name", "s1");
  JsonValue array = JsonValue::Array();
  for (JsonValue& row : rows) array.Append(std::move(row));
  section.Set("rows", std::move(array));
  JsonValue sections = JsonValue::Array();
  sections.Append(std::move(section));
  doc.Set("sections", std::move(sections));
  return doc.Dump();
}

JsonValue Fig7Row(double fair, double base, bool all_criteria) {
  JsonValue row = JsonValue::Object();
  row.Set("alpha_faircost", fair);
  row.Set("alpha_baseline", base);
  row.Set("faircost_all_criteria", all_criteria);
  return row;
}

JsonValue Fig8Row(int warm_enumerations) {
  JsonValue row = JsonValue::Object();
  row.Set("warm_lpc_enumerations", warm_enumerations);
  return row;
}

TEST(BenchClaimsTest, Fig7NeedsAllCriteriaAndAlphaAtLeastBaseline) {
  EXPECT_TRUE(CheckBenchClaims(BenchDoc(
                  "fig7_fairness",
                  {Fig7Row(0.9, 0.1, true), Fig7Row(1.0, 1.0, true)}))
                  .ok());
  EXPECT_FALSE(CheckBenchClaims(BenchDoc(
                   "fig7_fairness",
                   {Fig7Row(0.9, 0.1, true), Fig7Row(0.2, 0.3, true)}))
                   .ok());
  EXPECT_FALSE(
      CheckBenchClaims(BenchDoc("fig7_fairness", {Fig7Row(0.9, 0.1, false)}))
          .ok());
}

TEST(BenchClaimsTest, Fig8NeedsNoWarmEnumeration) {
  EXPECT_TRUE(CheckBenchClaims(BenchDoc("fig8_faircost_time",
                                        {Fig8Row(0), Fig8Row(0)}))
                  .ok());
  EXPECT_FALSE(CheckBenchClaims(BenchDoc("fig8_faircost_time",
                                         {Fig8Row(0), Fig8Row(3)}))
                   .ok());
  // A row that does not report the count fails too.
  EXPECT_FALSE(CheckBenchClaims(BenchDoc("fig8_faircost_time",
                                         {JsonValue::Object()}))
                   .ok());
}

TEST(BenchClaimsTest, NoRowsOrNoCheckFails) {
  EXPECT_FALSE(CheckBenchClaims(BenchDoc("fig7_fairness", {})).ok());
  EXPECT_FALSE(
      CheckBenchClaims(BenchDoc("demo", {Fig7Row(0.9, 0.1, true)})).ok());
  EXPECT_FALSE(CheckBenchClaims("{not json").ok());
}

}  // namespace
}  // namespace obs
}  // namespace dsm
