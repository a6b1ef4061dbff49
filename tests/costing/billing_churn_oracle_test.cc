// Billing under churn against its from-scratch oracle. A seeded Twitter
// market takes arrivals, identical twins, cancellations, a server failure
// (RecoveryPlanner::OnServerDown migrates or parks the sharings it hits)
// and the server's return (RetryParked re-admits the parked sharings
// under their old ids, so arrivals land mid-order). After every refresh
// the session's incremental state — the in-place containment DAG, the
// global plan's live saving shares, the flat snapshot and its drift
// merge — must equal, with == on doubles, what the scratch path computes:
// BuildFairCostProblem with no index (BuildContainmentDag), FAIRCOST over
// it, and saving/num summed afresh by ComputeReuseStats.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "costing/costing_session.h"
#include "costing/savings.h"
#include "market/rig.h"
#include "online/managed_risk.h"
#include "online/recovery_planner.h"
#include "workload/scenario.h"

namespace dsm {
namespace {

// The scratch bill: FAIRCOST over a problem built with the scratch DAG.
struct ScratchBill {
  std::vector<SharingId> ids;
  std::vector<double> ac;
  std::vector<double> lpc;
  double alpha = 0.0;
  bool criteria_satisfied = true;
};

ScratchBill BillFromScratch(const GlobalPlan& gp, LpcCalculator* lpc) {
  ScratchBill bill;
  const Result<FairCostProblem> problem =
      BuildFairCostProblem(gp, lpc, nullptr);
  EXPECT_TRUE(problem.ok());
  if (!problem.ok()) return bill;
  FairCost::Options options;
  options.lpc_overrun_fallback = true;  // as CostingSession bills
  const Result<FairCostResult> result =
      FairCost::Compute(problem->entries, problem->global_cost, options);
  EXPECT_TRUE(result.ok());
  if (!result.ok()) return bill;
  bill.ids = problem->ids;
  bill.ac = result->ac;
  for (const FairCostEntry& e : problem->entries) bill.lpc.push_back(e.lpc);
  bill.alpha = result->alpha;
  bill.criteria_satisfied = result->criteria_satisfied;
  return bill;
}

// The drift statistic over two consecutive scratch bills.
double Drift(const ScratchBill& prev, const ScratchBill& now) {
  double drift = 0.0;
  for (size_t i = 0; i < now.ids.size(); ++i) {
    const auto it =
        std::find(prev.ids.begin(), prev.ids.end(), now.ids[i]);
    if (it == prev.ids.end() || now.lpc[i] <= 0.0) continue;
    const double before =
        prev.ac[static_cast<size_t>(it - prev.ids.begin())];
    drift = std::max(drift, (now.ac[i] - before) / now.lpc[i]);
  }
  return drift;
}

void ExpectLiveSharesMatchScratch(const GlobalPlan& gp, int step) {
  std::unordered_map<ViewKey, GlobalPlan::ReuseStat, ViewKeyHash> scratch;
  for (GlobalPlan::ReuseStat& st : gp.ComputeReuseStats()) {
    scratch.emplace(st.key, std::move(st));
  }
  const std::vector<double>& shares = gp.SavingShares();
  for (const auto& [id, rec] : gp.records()) {
    for (const auto& [kid, node] : rec.distinct_keys) {
      const ViewKey& key = rec.plan.nodes[static_cast<size_t>(node)].key;
      const auto it = scratch.find(key);
      ASSERT_NE(it, scratch.end()) << "step " << step;
      ASSERT_LT(static_cast<size_t>(kid), shares.size());
      EXPECT_EQ(shares[static_cast<size_t>(kid)],
                it->second.saving / it->second.num)
          << "step " << step << " sharing " << id;
    }
  }
}

class BillingChurnOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BillingChurnOracleTest, RefreshEqualsScratchBill) {
  const TwitterScenario world = MakeTwitterScenario(4);
  const Rig rig = MakeRig(world);
  ManagedRiskPlanner planner(rig.ctx);
  RecoveryPlanner recovery(rig.ctx);
  LpcCalculator lpc(rig.enumerator.get(), world.model.get());
  CostingSession session(rig.global_plan.get(), &lpc);
  GlobalPlan& gp = *rig.global_plan;

  TwitterSequenceOptions options;
  options.num_sharings = 60;
  options.max_predicates = 2;
  options.seed = GetParam();
  const std::vector<Sharing> sequence = GenerateTwitterSequence(
      *world.catalog, world.tables, *world.cluster, options);

  Rng rng(GetParam() * 7919 + 1);
  std::vector<Sharing> arrived;
  size_t next = 0;
  int twins = 0;
  int removals = 0;
  int parked = 0;
  int mid_order = 0;
  ScratchBill prev;  // empty before the first refresh
  double expected_drift = 0.0;
  ServerId down = 0;
  bool is_down = false;

  for (int step = 0; step < 90; ++step) {
    if (step % 30 == 12) {
      // A server fails: its victims migrate or park.
      down = static_cast<ServerId>(rng.UniformInt(0, 3));
      ASSERT_TRUE(world.cluster->MarkDown(down).ok());
      const Result<RecoveryReport> report =
          recovery.OnServerDown(down, step);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      parked += static_cast<int>(report->parked.size());
      is_down = true;
    } else if (step % 30 == 22 && is_down) {
      // It returns: the parked sharings come back under their old ids.
      ASSERT_TRUE(world.cluster->MarkUp(down).ok());
      is_down = false;
      const Result<std::vector<MigratedSharing>> back =
          recovery.RetryParked(step, /*force=*/true);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      const std::vector<SharingId> ids = gp.sharing_ids();
      for (const MigratedSharing& m : *back) {
        if (m.id < ids.back()) ++mid_order;
      }
    } else {
      const double roll = rng.UniformDouble(0.0, 1.0);
      if (roll < 0.2 && gp.num_sharings() > 2) {
        const std::vector<SharingId> ids = gp.sharing_ids();
        const SharingId victim = ids[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
        ASSERT_TRUE(gp.RemoveSharing(victim).ok());
        ++removals;
      } else {
        // An identical twin of an earlier arrival, or the next sharing.
        const bool twin = roll < 0.4 && !arrived.empty();
        const Sharing sharing =
            twin ? arrived[static_cast<size_t>(rng.UniformInt(
                       0, static_cast<int64_t>(arrived.size()) - 1))]
                 : sequence[next++ % sequence.size()];
        const Result<PlanChoice> choice = planner.ProcessSharing(sharing);
        if (choice.ok()) {
          arrived.push_back(sharing);
          if (choice->reused_identical) ++twins;
        }
      }
    }
    if (gp.num_sharings() == 0) continue;

    const Result<CostingSession::Snapshot> snapshot = session.Refresh();
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    const ScratchBill scratch = BillFromScratch(gp, &lpc);
    ASSERT_EQ(snapshot->ac.size(), scratch.ids.size()) << "step " << step;
    size_t i = 0;
    for (const auto& [id, ac] : snapshot->ac) {
      EXPECT_EQ(id, scratch.ids[i]) << "step " << step;
      EXPECT_EQ(ac, scratch.ac[i]) << "step " << step << " sharing " << id;
      EXPECT_EQ(snapshot->lpc.at(id), scratch.lpc[i]) << "step " << step;
      ++i;
    }
    EXPECT_EQ(snapshot->alpha, scratch.alpha) << "step " << step;
    EXPECT_EQ(snapshot->criteria_satisfied, scratch.criteria_satisfied)
        << "step " << step;
    ExpectLiveSharesMatchScratch(gp, step);

    // The drift merge against the previous flat snapshot.
    expected_drift = std::max(expected_drift, Drift(prev, scratch));
    EXPECT_EQ(session.MaxAcIncreaseFractionOfLpc(), expected_drift)
        << "step " << step;
    prev = scratch;

    // at() on an id no sharing has throws, as std::map::at does.
    const SharingId unknown = scratch.ids.back() + 1;
    EXPECT_THROW(static_cast<void>(snapshot->ac.at(unknown)),
                 std::out_of_range);
    EXPECT_EQ(snapshot->lpc.find(unknown), snapshot->lpc.end());
  }

  // The run exercised every kind of change.
  EXPECT_GT(twins, 0);
  EXPECT_GT(removals, 0);
  EXPECT_GT(parked, 0);
  EXPECT_GT(mid_order, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BillingChurnOracleTest,
                         ::testing::Values(3, 29, 2014));

}  // namespace
}  // namespace dsm
