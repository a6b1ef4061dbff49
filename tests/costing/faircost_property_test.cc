// Property tests for FAIRCOST over randomized inputs (parameterized by
// seed): every returned assignment must satisfy all five fairness
// criteria, feasibility must match Lemma 5.2, and α must not increase as
// the cost to recover grows.

#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.h"
#include "costing/fair_cost.h"
#include "costing/fairness_metrics.h"

namespace dsm {
namespace {

// Most saving terms stay below the GPC, but a sharing that reuses a view
// whose saving is large next to its own plan's cost gets saving_term >
// GPC (Figure 7's Twitter runs have several); FAIRCOST bills it 0 at α = 1.
double RandomSavingTerm(Rng* rng, double gpc) {
  return rng->Bernoulli(0.2) ? rng->UniformDouble(1.0, 2.0) * gpc
                             : rng->UniformDouble(0.0, 0.8 * gpc);
}

std::vector<FairCostEntry> RandomEntries(Rng* rng, size_t n) {
  std::vector<FairCostEntry> entries(n);
  for (size_t i = 0; i < n; ++i) {
    const double lpc = rng->UniformDouble(1.0, 100.0);
    entries[i].id = i + 1;
    entries[i].lpc = lpc;
    entries[i].gpc = lpc + rng->UniformDouble(0.0, 50.0);
    entries[i].saving_term = RandomSavingTerm(rng, entries[i].gpc);
    entries[i].identity_group = static_cast<uint32_t>(i);
  }
  // Random identical pairs: merge ~20% of entries into an earlier group.
  for (size_t i = 1; i < n; ++i) {
    if (rng->Bernoulli(0.2)) {
      const size_t j = static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(i) - 1));
      entries[i].identity_group = entries[j].identity_group;
      entries[i].lpc = entries[j].lpc;  // identical queries share an LPC
      entries[i].saving_term = entries[j].saving_term;
      // GPC and saving terms are plan-dependent and may differ between
      // identical sharings, but GPC never drops below the LPC.
      entries[i].gpc = entries[i].lpc + rng->UniformDouble(0.0, 50.0);
      entries[i].saving_term = RandomSavingTerm(rng, entries[i].gpc);
    }
  }
  // Random containment arcs respecting the LPC precondition.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j ||
          entries[i].identity_group == entries[j].identity_group) {
        continue;
      }
      if (entries[i].lpc <= entries[j].lpc && rng->Bernoulli(0.1)) {
        entries[i].containers.push_back(static_cast<int>(j));
      }
    }
  }
  return entries;
}

class FairCostPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FairCostPropertyTest, OutputSatisfiesAllCriteria) {
  Rng rng(GetParam());
  const size_t n = 2 + static_cast<size_t>(rng.UniformInt(0, 18));
  const auto entries = RandomEntries(&rng, n);
  double lpc_sum = 0.0;
  for (const auto& e : entries) lpc_sum += e.lpc;
  const double global_cost = rng.UniformDouble(0.2, 1.0) * lpc_sum;

  const auto result = FairCost::Compute(entries, global_cost);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->alpha, 0.0);
  EXPECT_LE(result->alpha, 1.0);

  const FairnessReport report =
      EvaluateFairness(entries, global_cost, result->ac);
  EXPECT_DOUBLE_EQ(report.lpc_fraction, 1.0);
  EXPECT_DOUBLE_EQ(report.identical_fraction, 1.0);
  EXPECT_DOUBLE_EQ(report.contained_fraction, 1.0);
  EXPECT_NEAR(report.recovery_error, 0.0, 1e-6);
  // The achievable α of the assignment is at least the reported one.
  EXPECT_GE(report.alpha, result->alpha - 1e-6);
}

TEST_P(FairCostPropertyTest, AlphaMonotoneInGlobalCost) {
  Rng rng(GetParam() ^ 0x5555);
  const auto entries = RandomEntries(&rng, 10);
  double lpc_sum = 0.0;
  for (const auto& e : entries) lpc_sum += e.lpc;

  double prev_alpha = 1.0;
  for (const double frac : {0.3, 0.5, 0.7, 0.9, 1.0}) {
    const auto result = FairCost::Compute(entries, frac * lpc_sum);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->alpha, prev_alpha + 1e-9)
        << "alpha must not increase with the cost to recover";
    prev_alpha = result->alpha;
  }
}

TEST_P(FairCostPropertyTest, InfeasibleJustAboveLpcSum) {
  Rng rng(GetParam() ^ 0xaaaa);
  const auto entries = RandomEntries(&rng, 8);
  double lpc_sum = 0.0;
  for (const auto& e : entries) lpc_sum += e.lpc;
  EXPECT_EQ(FairCost::Compute(entries, lpc_sum * 1.01).status().code(),
            StatusCode::kInfeasible);
  EXPECT_TRUE(FairCost::Compute(entries, lpc_sum * 0.99).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FairCostPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89, 144, 233));

}  // namespace
}  // namespace dsm
