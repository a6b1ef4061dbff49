#include "sharing/sharing.h"

#include <gtest/gtest.h>

namespace dsm {
namespace {

Predicate P(TableId t, double v) {
  Predicate p;
  p.table = t;
  p.column = 0;
  p.op = CompareOp::kLt;
  p.value = v;
  return p;
}

TableSet TS(std::initializer_list<TableId> ids) {
  TableSet s;
  for (const TableId id : ids) s.Add(id);
  return s;
}

TEST(SharingTest, NumJoins) {
  EXPECT_EQ(Sharing(TS({0, 1, 2}), {}, 0).NumJoins(), 2);
  EXPECT_EQ(Sharing(TS({0, 1}), {}, 0).NumJoins(), 1);
  EXPECT_EQ(Sharing(TS({3}), {}, 0).NumJoins(), 0);
}

TEST(SharingTest, IdenticalIgnoresDestinationAndBuyer) {
  const Sharing a(TS({0, 1}), {P(0, 5)}, 0, "alice");
  const Sharing b(TS({0, 1}), {P(0, 5)}, 3, "bob");
  EXPECT_TRUE(a.ResultKey() == b.ResultKey());
  EXPECT_EQ(ViewKeyHash()(a.ResultKey()), ViewKeyHash()(b.ResultKey()));
}

TEST(SharingTest, DifferentPredicatesNotIdentical) {
  const Sharing a(TS({0, 1}), {P(0, 5)}, 0);
  const Sharing b(TS({0, 1}), {P(0, 6)}, 0);
  EXPECT_FALSE(a.ResultKey() == b.ResultKey());
  EXPECT_NE(ViewKeyHash()(a.ResultKey()), ViewKeyHash()(b.ResultKey()));
}

TEST(SharingTest, PredicateOrderIrrelevantToIdentity) {
  const Sharing a(TS({0, 1}), {P(0, 5), P(1, 7)}, 0);
  const Sharing b(TS({0, 1}), {P(1, 7), P(0, 5)}, 0);
  EXPECT_TRUE(a.ResultKey() == b.ResultKey());
}

TEST(SharingTest, ContainmentViaPredicateSuperset) {
  // More predicates -> fewer tuples -> contained (Example 1.1's Seattle
  // filter is contained in the unfiltered sharing).
  const Sharing filtered(TS({0, 1}), {P(0, 5)}, 0);
  const Sharing full(TS({0, 1}), {}, 0);
  EXPECT_TRUE(full.ResultKey().Subsumes(filtered.ResultKey()));
  EXPECT_FALSE(filtered.ResultKey().Subsumes(full.ResultKey()));
}

TEST(SharingTest, ContainmentRequiresSameTables) {
  const Sharing a(TS({0, 1}), {P(0, 5)}, 0);
  const Sharing b(TS({0, 2}), {}, 0);
  EXPECT_FALSE(b.ResultKey().Subsumes(a.ResultKey()));
}

TEST(SharingTest, SelfContainment) {
  const Sharing a(TS({0, 1}), {P(0, 5)}, 0);
  EXPECT_TRUE(a.ResultKey().Subsumes(a.ResultKey()));
}

// -0.0 == +0.0, so the two constants make identical sharings; every hash
// over the predicates must then agree too, or hashed lookups split what
// ViewKey equality joins.
TEST(SharingTest, SignedZeroConstantsHashEqual) {
  const Sharing plus(TS({0, 1}), {P(0, 0.0)}, 0);
  const Sharing minus(TS({0, 1}), {P(0, -0.0)}, 0);
  ASSERT_TRUE(plus.ResultKey() == minus.ResultKey());
  EXPECT_EQ(ViewKeyHash()(plus.ResultKey()), ViewKeyHash()(minus.ResultKey()));
  EXPECT_EQ(PredicateSignature(plus.predicates()),
            PredicateSignature(minus.predicates()));
}

TEST(SharingTest, ResultKeyCarriesPredicates) {
  const Sharing a(TS({0, 1}), {P(0, 5)}, 2);
  const ViewKey key = a.ResultKey();
  EXPECT_EQ(key.tables, TS({0, 1}));
  ASSERT_EQ(key.predicates.size(), 1u);
}

}  // namespace
}  // namespace dsm
