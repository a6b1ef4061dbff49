// PlanEnumerator prices each join once per server triple of its DP split
// and each final filter/copy once per server of the top slot, not once
// per fragment. That may skip only exact repeat calls, so every fragment
// must still carry, bit for bit, the op cost and load that NodeCost and
// NodeLoad give for it as a plan node over its children — evaluated on a
// fresh model of the same seed that prices every fragment of every space
// in fragment-index order (the order in which the DP creates them). A
// TableDrivenCostModel draws its join costs in first-query order, so any
// reordered first call would change the costs it draws. Every plan must
// also round-trip through PlanSpace::Of: the space of Materialize(k) holds
// the same nodes at the same costs.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "cost/default_cost_model.h"
#include "cost/table_cost_model.h"
#include "market/rig.h"
#include "plan/plan_space.h"
#include "workload/predicate_gen.h"

namespace dsm {
namespace {

constexpr size_t kSharings = 12;

// A world whose sharings carry 0–3 predicates, and a way to build a fresh
// copy of its cost model (same seed, nothing queried yet).
struct PricedWorld {
  Scenario world;
  std::optional<TableDrivenCostModel::Options> table_costs;

  std::unique_ptr<CostModel> FreshModel() const {
    if (table_costs.has_value()) {
      return std::make_unique<TableDrivenCostModel>(*table_costs);
    }
    return std::make_unique<DefaultCostModel>(world.catalog.get(),
                                              world.cluster.get());
  }
};

PricedWorld TwitterWorld(uint64_t seed, bool table_driven) {
  PricedWorld out;
  if (table_driven) {
    out.table_costs =
        TableDrivenCostModel::Options{.seed = seed, .transfer_cost = 3.0};
  }
  TwitterScenario world = MakeTwitterScenario(5, out.table_costs);
  TwitterSequenceOptions seq;
  seq.num_sharings = kSharings;
  seq.max_predicates = 3;
  seq.frac_with_predicates = 0.7;
  seq.seed = seed;
  world.sharings = GenerateTwitterSequence(*world.catalog, world.tables,
                                           *world.cluster, seq);
  out.world = std::move(world);
  return out;
}

PricedWorld StarWorld(uint64_t seed, bool table_driven) {
  PricedWorld out;
  if (table_driven) {
    out.table_costs =
        TableDrivenCostModel::Options{.seed = seed, .transfer_cost = 7.0};
  }
  StarScenario world = MakeStarScenario(2, 8, 5, out.table_costs);
  StarSequenceOptions seq;
  seq.num_sharings = kSharings;
  seq.max_tables = 5;
  seq.seed = seed;
  Rng rng(seed ^ 0x5eed);
  for (const Sharing& s :
       GenerateStarSharings(world.schema, *world.cluster, seq)) {
    const int count = static_cast<int>(rng.UniformInt(0, 3));
    world.sharings.emplace_back(
        s.tables(), RandomPredicates(*world.catalog, s.tables(), count, &rng),
        s.destination());
  }
  out.world = std::move(world);
  return out;
}

// Enumerates every sharing of `pw` in order, then re-prices every fragment
// of every space on a fresh model in (space, fragment) index order.
void ExpectExactPricing(const PricedWorld& pw, EnumeratorOptions options) {
  const Rig rig = MakeRig(pw.world, options);
  std::vector<PlanSpace> spaces;
  for (const Sharing& sharing : pw.world.sharings) {
    auto space = rig.enumerator->Enumerate(sharing);
    ASSERT_TRUE(space.ok()) << space.status().ToString();
    ASSERT_FALSE(space->empty());
    spaces.push_back(*std::move(space));
  }

  const std::unique_ptr<CostModel> referee = pw.FreshModel();
  size_t checked = 0;
  size_t shared_slots = 0;  // slots holding more than one fragment
  for (size_t s = 0; s < spaces.size(); ++s) {
    const PlanSpace& space = spaces[s];
    std::vector<size_t> per_slot(space.slot_keys().size(), 0);
    for (size_t i = 0; i < space.fragments().size(); ++i) {
      const int id = static_cast<int>(i);
      const PlanSpace::Fragment& frag = space.fragment(id);
      const PlanNode node = space.node(id);
      std::optional<PlanNode> left;
      std::optional<PlanNode> right;
      if (frag.left >= 0) {
        ASSERT_LT(frag.left, id);
        left = space.node(frag.left);
      }
      if (frag.right >= 0) {
        ASSERT_LT(frag.right, id);
        right = space.node(frag.right);
      }
      const PlanNode* l = left.has_value() ? &*left : nullptr;
      const PlanNode* r = right.has_value() ? &*right : nullptr;
      EXPECT_EQ(frag.op_cost, NodeCost(node, l, r, referee.get()))
          << "space " << s << " fragment " << i;
      EXPECT_EQ(frag.load, NodeLoad(node, l, r, referee.get()))
          << "space " << s << " fragment " << i;
      if (++per_slot[static_cast<size_t>(frag.slot)] == 2) ++shared_slots;
      ++checked;
    }
    for (size_t k = 0; k < space.size(); ++k) {
      const SharingPlan plan = space.Materialize(k);
      const PlanSpace single = PlanSpace::Of(plan, referee.get());
      ASSERT_EQ(single.size(), 1u);
      EXPECT_EQ(single.Materialize(0), plan) << "space " << s << " plan " << k;
      EXPECT_EQ(single.StandaloneCost(0), space.StandaloneCost(k));
      EXPECT_EQ(single.StandaloneCost(0), PlanCost(plan, referee.get()));
      // Post-order walk of plan k's fragments: node i of the plan.
      std::vector<int> order;
      const auto collect = [&](const auto& self, int f) -> void {
        const PlanSpace::Fragment& frag = space.fragment(f);
        if (frag.left >= 0) self(self, frag.left);
        if (frag.right >= 0) self(self, frag.right);
        order.push_back(f);
      };
      collect(collect, space.root(k));
      ASSERT_EQ(order.size(), plan.nodes.size());
      for (size_t i = 0; i < order.size(); ++i) {
        const PlanSpace::Fragment& want = space.fragment(order[i]);
        const PlanSpace::Fragment& got = single.fragment(static_cast<int>(i));
        EXPECT_EQ(got.op_cost, want.op_cost) << "plan " << k << " node " << i;
        EXPECT_EQ(got.load, want.load) << "plan " << k << " node " << i;
        EXPECT_EQ(got.slot, static_cast<int>(i));
      }
    }
  }
  EXPECT_GT(checked, 1000u);
  // Several fragments per slot, so per-triple pricing was exercised.
  EXPECT_GT(shared_slots, 0u);
}

struct PricingCase {
  bool star;
  bool table_driven;
  size_t beam;  // EnumeratorOptions::per_subset_cap
};

class PlanSpacePricingTest
    : public ::testing::TestWithParam<std::tuple<PricingCase, uint64_t>> {};

TEST_P(PlanSpacePricingTest, FragmentsPricedAsTheirNodes) {
  const auto& [c, seed] = GetParam();
  EnumeratorOptions options;
  options.per_subset_cap = c.beam;
  ExpectExactPricing(
      c.star ? StarWorld(seed, c.table_driven)
             : TwitterWorld(seed, c.table_driven),
      options);
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, PlanSpacePricingTest,
    ::testing::Combine(
        ::testing::Values(PricingCase{false, false, 0},
                          PricingCase{false, false, 4},
                          PricingCase{false, true, 0},
                          PricingCase{false, true, 4},
                          PricingCase{true, false, 0},
                          PricingCase{true, false, 3},
                          PricingCase{true, true, 0},
                          PricingCase{true, true, 3}),
        ::testing::Values(7, 61)),
    [](const auto& info) {
      const PricingCase& c = std::get<0>(info.param);
      return std::string(c.star ? "Star" : "Twitter") +
             (c.table_driven ? "TableDriven" : "Default") +
             (c.beam > 0 ? "Beam" : "Exhaustive") +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace dsm
