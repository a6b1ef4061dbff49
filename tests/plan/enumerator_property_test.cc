// Property tests over the plan enumerator: every plan returned for a
// random sharing must be structurally valid, deliver the right result,
// and be unique.

#include <gtest/gtest.h>

#include "plan/enumerator.h"
#include "testing/plans.h"
#include "workload/adversarial.h"
#include "workload/predicate_gen.h"

namespace dsm {
namespace {

class EnumeratorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Structural validity of one plan for `sharing`.
void CheckPlan(const SharingPlan& plan, const Sharing& sharing,
               const JoinGraph& graph) {
  ASSERT_FALSE(plan.empty());
  std::vector<bool> used(plan.nodes.size(), false);
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    const PlanNode& n = plan.nodes[i];
    switch (n.type) {
      case PlanNodeType::kLeaf:
        EXPECT_EQ(n.left, -1);
        EXPECT_EQ(n.right, -1);
        EXPECT_EQ(n.key.tables, TableSet::Of(n.base_table));
        break;
      case PlanNodeType::kJoin: {
        // Children precede the node (topological order).
        ASSERT_GE(n.left, 0);
        ASSERT_GE(n.right, 0);
        ASSERT_LT(n.left, static_cast<int>(i));
        ASSERT_LT(n.right, static_cast<int>(i));
        const PlanNode& l = plan.nodes[static_cast<size_t>(n.left)];
        const PlanNode& r = plan.nodes[static_cast<size_t>(n.right)];
        // Disjoint inputs, connected via a join edge, union key.
        EXPECT_FALSE(l.key.tables.Intersects(r.key.tables));
        EXPECT_TRUE(graph.Joinable(l.key.tables, r.key.tables));
        EXPECT_EQ(n.key.tables, l.key.tables.Union(r.key.tables));
        used[static_cast<size_t>(n.left)] = true;
        used[static_cast<size_t>(n.right)] = true;
        break;
      }
      case PlanNodeType::kFilterCopy: {
        ASSERT_GE(n.left, 0);
        ASSERT_LT(n.left, static_cast<int>(i));
        const PlanNode& src = plan.nodes[static_cast<size_t>(n.left)];
        EXPECT_EQ(n.key.tables, src.key.tables);
        // The source must subsume what the node produces.
        EXPECT_TRUE(src.key.Subsumes(n.key));
        used[static_cast<size_t>(n.left)] = true;
        break;
      }
    }
    // Every node's predicates are a subset of the sharing's.
    EXPECT_TRUE(PredicateSubset(n.key.predicates, sharing.predicates()));
  }
  // The root delivers the sharing's result at its destination, and every
  // non-root node feeds exactly one parent (tree shape).
  EXPECT_EQ(plan.root().key, sharing.ResultKey());
  EXPECT_EQ(plan.root().server, sharing.destination());
  for (size_t i = 0; i + 1 < plan.nodes.size(); ++i) {
    EXPECT_TRUE(used[i]) << "orphan node " << i;
  }
}

TEST_P(EnumeratorPropertyTest, AllPlansValidAndUnique) {
  const Scenario sc = MakeRandomThreeWay(GetParam(), 6, 12);
  Rng rng(GetParam() ^ 0x777);
  PlanEnumerator enumerator(sc.catalog.get(), sc.cluster.get(),
                            sc.graph.get(), sc.model.get(), {});
  for (const Sharing& base : sc.sharings) {
    // Attach 0-2 random predicates.
    std::vector<Predicate> preds = RandomPredicates(
        *sc.catalog, base.tables(), static_cast<int>(rng.UniformInt(0, 2)),
        &rng);
    const Sharing sharing(base.tables(), std::move(preds),
                          base.destination());
    const auto plans = testing_support::EnumerateAll(enumerator, sharing);
    ASSERT_TRUE(plans.ok());
    ASSERT_FALSE(plans->empty());
    for (size_t i = 0; i < plans->size(); ++i) {
      CheckPlan((*plans)[i], sharing, *sc.graph);
      for (size_t j = 0; j < i; ++j) {
        EXPECT_FALSE((*plans)[i] == (*plans)[j])
            << "plans " << j << " and " << i << " are the same tree";
      }
    }
  }
}

TEST_P(EnumeratorPropertyTest, BeamPlansAreSubsetQuality) {
  // The beam's best plan is never better than the exhaustive best (it
  // searches a subset) and the exhaustive best is never better than ...
  // the beam can only lose: LPC(beam) >= LPC(exhaustive).
  const Scenario sc = MakeRandomThreeWay(GetParam() ^ 0xbeef, 4, 12);
  PlanEnumerator full(sc.catalog.get(), sc.cluster.get(), sc.graph.get(),
                      sc.model.get(), {});
  EnumeratorOptions beam_options;
  beam_options.per_subset_cap = 1;
  PlanEnumerator beam(sc.catalog.get(), sc.cluster.get(), sc.graph.get(),
                      sc.model.get(), beam_options);
  for (const Sharing& sharing : sc.sharings) {
    const auto full_plans = testing_support::EnumerateAll(full, sharing);
    const auto beam_plans = testing_support::EnumerateAll(beam, sharing);
    ASSERT_TRUE(full_plans.ok());
    ASSERT_TRUE(beam_plans.ok());
    ASSERT_FALSE(beam_plans->empty());
    EXPECT_LE(beam_plans->size(), full_plans->size());
    auto cheapest = [&](const std::vector<SharingPlan>& plans) {
      double best = 1e300;
      for (const SharingPlan& p : plans) {
        best = std::min(best, PlanCost(p, sc.model.get()));
      }
      return best;
    };
    EXPECT_GE(cheapest(*beam_plans) + 1e-9, cheapest(*full_plans));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnumeratorPropertyTest,
                         ::testing::Values(3, 14, 15, 92, 65, 35, 89, 79));

}  // namespace
}  // namespace dsm
