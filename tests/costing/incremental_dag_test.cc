// IncrementalContainmentIndex must reproduce BuildContainmentDag exactly —
// identity groups and container lists — after arbitrary interleavings of
// sharing arrivals, removals and re-admissions under old ids. Populations
// are drawn from small pools of table sets and predicates so identity
// twins and containment chains actually occur.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "costing/containment_dag.h"
#include "costing/incremental_containment.h"
#include "expr/view_key.h"
#include "sharing/sharing.h"

namespace dsm {
namespace {

// The pool: 3 table sets × nested predicate lists (plus a no-predicate
// variant each), so Subsumes holds along each chain and equality across
// repeated draws.
std::vector<ViewKey> MakeQueryPool() {
  std::vector<ViewKey> pool;
  const std::vector<TableSet> tables = {
      TableSet(0b0011), TableSet(0b0111), TableSet(0b1101)};
  for (const TableSet ts : tables) {
    const TableId t = ts.ToVector().front();
    const Predicate p1{t, 0, CompareOp::kGt, 10.0};
    const Predicate p2{t, 1, CompareOp::kLt, 99.0};
    const Predicate p3{t, 2, CompareOp::kEq, 7.0};
    pool.emplace_back(ts, std::vector<Predicate>{});
    pool.emplace_back(ts, std::vector<Predicate>{p1});
    pool.emplace_back(ts, std::vector<Predicate>{p1, p2});
    pool.emplace_back(ts, std::vector<Predicate>{p1, p2, p3});
    pool.emplace_back(ts, std::vector<Predicate>{p3});
  }
  return pool;
}

QueryRefs Refs(const std::vector<ViewKey>& queries) {
  return QueryRefs(queries.begin(), queries.end());
}

void ExpectSameDag(const ContainmentDag& scratch, const ContainmentDag& inc,
                   int step) {
  ASSERT_EQ(scratch.identity_group.size(), inc.identity_group.size())
      << "step " << step;
  EXPECT_EQ(scratch.identity_group, inc.identity_group) << "step " << step;
  ASSERT_EQ(scratch.containers.size(), inc.containers.size())
      << "step " << step;
  for (size_t i = 0; i < scratch.containers.size(); ++i) {
    EXPECT_EQ(scratch.containers[i], inc.containers[i])
        << "step " << step << " sharing index " << i;
  }
}

class IncrementalDagTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalDagTest, MatchesScratchUnderChurn) {
  const std::vector<ViewKey> pool = MakeQueryPool();
  Rng rng(GetParam());

  struct Live {
    SharingId id;
    ViewKey query;
    double lpc;
  };
  std::vector<Live> population;  // ascending id
  std::vector<Live> removed;
  SharingId next_id = 1;
  IncrementalContainmentIndex index;

  for (int step = 0; step < 200; ++step) {
    const bool remove = !population.empty() && rng.Bernoulli(0.35);
    if (remove) {
      const size_t pick = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(population.size()) - 1));
      removed.push_back(population[pick]);
      population.erase(population.begin() + static_cast<int64_t>(pick));
    } else if (!removed.empty() && rng.Bernoulli(0.4)) {
      // A removed sharing comes back under its old id, as RetryParked
      // re-admits it: the arrival lands mid-order and later rows move.
      const size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(removed.size()) - 1));
      const Live back = removed[pick];
      removed.erase(removed.begin() + static_cast<int64_t>(pick));
      population.insert(
          std::lower_bound(
              population.begin(), population.end(), back.id,
              [](const Live& l, SharingId id) { return l.id < id; }),
          back);
    } else {
      const ViewKey& q = pool[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
      // A few distinct LPC magnitudes so the lpc[i] <= lpc[j] edge
      // condition cuts both ways, including exact ties.
      const double lpc =
          static_cast<double>(rng.UniformInt(1, 4)) * 10.0;
      population.push_back(Live{next_id++, q, lpc});
    }

    std::vector<SharingId> ids;
    QueryRefs queries;
    std::vector<double> lpcs;
    for (const Live& l : population) {
      ids.push_back(l.id);
      queries.emplace_back(l.query);
      lpcs.push_back(l.lpc);
    }
    const ContainmentDag scratch = BuildContainmentDag(queries, lpcs);
    const ContainmentDag inc = index.Update(ids, queries, lpcs);
    ExpectSameDag(scratch, inc, step);
    EXPECT_EQ(index.num_members(), population.size());
  }
}

// A changed LPC for a surviving sharing (re-billing after replanning) must
// not leave stale edges behind: the member is re-indexed.
TEST_P(IncrementalDagTest, LpcChangeReindexesMember) {
  const std::vector<ViewKey> pool = MakeQueryPool();
  std::vector<SharingId> ids = {1, 2, 3};
  const QueryRefs queries = {pool[1], pool[2], pool[3]};
  std::vector<double> lpcs = {10.0, 20.0, 30.0};

  IncrementalContainmentIndex index;
  ExpectSameDag(BuildContainmentDag(queries, lpcs),
                index.Update(ids, queries, lpcs), 0);

  // Invert the LPC order: every containment edge direction flips.
  lpcs = {30.0, 20.0, 10.0};
  ExpectSameDag(BuildContainmentDag(queries, lpcs),
                index.Update(ids, queries, lpcs), 1);
}

TEST_P(IncrementalDagTest, ResetStartsClean) {
  const std::vector<ViewKey> pool = MakeQueryPool();
  std::vector<SharingId> ids = {1, 2};
  const QueryRefs queries = {pool[0], pool[1]};
  std::vector<double> lpcs = {5.0, 5.0};
  IncrementalContainmentIndex index;
  index.Update(ids, queries, lpcs);
  index.Reset();
  EXPECT_EQ(index.num_members(), 0u);
  ExpectSameDag(BuildContainmentDag(queries, lpcs),
                index.Update(ids, queries, lpcs), 0);
}

// Two sharings that differ only in a 0.0 vs -0.0 constant are identical
// (criterion (1) bills them alike), so the index must put them in one
// identity group, as the scratch build does.
TEST(IncrementalDagSignedZeroTest, SignedZeroTwinsShareAGroup) {
  const Predicate plus{0, 0, CompareOp::kGt, 0.0};
  const Predicate minus{0, 0, CompareOp::kGt, -0.0};
  const std::vector<SharingId> ids = {1, 2};
  const std::vector<ViewKey> queries = {ViewKey(TableSet(0b0011), {plus}),
                                        ViewKey(TableSet(0b0011), {minus})};
  const std::vector<double> lpcs = {10.0, 10.0};
  IncrementalContainmentIndex index;
  const ContainmentDag scratch = BuildContainmentDag(Refs(queries), lpcs);
  EXPECT_EQ(scratch.identity_group[0], scratch.identity_group[1]);
  ExpectSameDag(scratch, index.Update(ids, Refs(queries), lpcs), 0);
}

// ViewKeyHash mixes (column << 24) ^ bits(value), so a predicate on column
// 0 with value v and one on column 1 with v's bit 24 flipped hash alike.
// Two such queries are different sharings: they must land in different
// identity groups, and a third query equal to the second must join its
// group, exactly as in the scratch build.
TEST(IncrementalDagCollisionTest, CollidingQueriesStayApart) {
  const double v = 500.0;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  bits ^= uint64_t{1} << 24;
  double flipped;
  std::memcpy(&flipped, &bits, sizeof(flipped));
  const Predicate on_col0{0, 0, CompareOp::kLt, v};
  const Predicate on_col1{0, 1, CompareOp::kLt, flipped};
  const std::vector<ViewKey> queries = {ViewKey(TableSet(0b0011), {on_col0}),
                                        ViewKey(TableSet(0b0011), {on_col1}),
                                        ViewKey(TableSet(0b0011), {on_col1})};
  ASSERT_EQ(ViewKeyHash()(queries[0]), ViewKeyHash()(queries[1]));
  ASSERT_FALSE(queries[0] == queries[1]);

  const std::vector<SharingId> ids = {1, 2, 3};
  const std::vector<double> lpcs = {10.0, 10.0, 10.0};
  const ContainmentDag scratch = BuildContainmentDag(Refs(queries), lpcs);
  EXPECT_NE(scratch.identity_group[0], scratch.identity_group[1]);
  EXPECT_EQ(scratch.identity_group[1], scratch.identity_group[2]);
  IncrementalContainmentIndex index;
  ExpectSameDag(scratch, index.Update(ids, Refs(queries), lpcs), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalDagTest,
                         ::testing::Values(1, 13, 77, 501, 9001));

}  // namespace
}  // namespace dsm
