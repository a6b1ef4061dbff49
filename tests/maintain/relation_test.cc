#include "maintain/relation.h"

#include <gtest/gtest.h>

namespace dsm {
namespace {

Tuple T(std::initializer_list<int64_t> values) {
  Tuple t;
  for (const int64_t v : values) t.emplace_back(v);
  return t;
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(ValueToString(Value(int64_t{42})), "42");
  EXPECT_EQ(ValueToString(Value(2.5)), "2.5");
  EXPECT_EQ(ValueToString(Value(std::string("x"))), "x");
}

TEST(ValueTest, SatisfiesNumeric) {
  EXPECT_TRUE(ValueSatisfies(Value(int64_t{5}), CompareOp::kLt, 10));
  EXPECT_FALSE(ValueSatisfies(Value(int64_t{15}), CompareOp::kLt, 10));
  EXPECT_TRUE(ValueSatisfies(Value(3.5), CompareOp::kGt, 3));
  EXPECT_TRUE(ValueSatisfies(Value(int64_t{7}), CompareOp::kEq, 7));
  EXPECT_FALSE(ValueSatisfies(Value(std::string("7")), CompareOp::kEq, 7));
}

TEST(RelationTest, ApplyAndCount) {
  Relation r({"a", "b"});
  r.Apply(T({1, 2}), 1);
  r.Apply(T({1, 2}), 2);
  r.Apply(T({3, 4}), 1);
  EXPECT_EQ(r.Count(T({1, 2})), 3);
  EXPECT_EQ(r.Count(T({3, 4})), 1);
  EXPECT_EQ(r.Count(T({9, 9})), 0);
  // Tuples of the wrong arity are never in the bag.
  EXPECT_EQ(r.Count(T({1})), 0);
  EXPECT_EQ(r.Count(T({1, 2, 0})), 0);
  EXPECT_EQ(r.DistinctSize(), 2u);
  EXPECT_EQ(r.TotalSize(), 4);
}

TEST(RelationTest, ZeroCountsErased) {
  Relation r({"a"});
  r.Apply(T({1}), 2);
  r.Apply(T({1}), -2);
  EXPECT_EQ(r.DistinctSize(), 0u);
  EXPECT_EQ(r.Count(T({1})), 0);
}

TEST(RelationTest, NegativeCountsForDeltas) {
  Relation r({"a"});
  r.Apply(T({1}), -1);
  EXPECT_EQ(r.Count(T({1})), -1);
  EXPECT_EQ(r.TotalSize(), -1);
}

TEST(RelationTest, BagEquality) {
  Relation r({"a"});
  Relation s({"a"});
  r.Apply(T({1}), 2);
  s.Apply(T({1}), 2);
  EXPECT_TRUE(r.BagEquals(s));
  s.Apply(T({1}), 1);
  EXPECT_FALSE(r.BagEquals(s));
}

TEST(RelationTest, FilterByColumn) {
  Relation r({"a", "b"});
  r.Apply(T({1, 10}), 1);
  r.Apply(T({2, 20}), 2);
  r.Apply(T({3, 30}), 1);
  const Relation f = r.Filter("b", CompareOp::kGt, 15);
  EXPECT_EQ(f.Count(T({2, 20})), 2);
  EXPECT_EQ(f.Count(T({3, 30})), 1);
  EXPECT_EQ(f.Count(T({1, 10})), 0);
}

TEST(RelationTest, FilterUnknownColumnIsNoop) {
  Relation r({"a"});
  r.Apply(T({1}), 1);
  const Relation f = r.Filter("zzz", CompareOp::kLt, 0);
  EXPECT_TRUE(f.BagEquals(r));
}

TEST(NaturalJoinTest, JoinsOnSharedColumns) {
  Relation r({"uid", "x"});
  r.Apply(T({1, 100}), 1);
  r.Apply(T({2, 200}), 1);
  Relation s({"uid", "y"});
  s.Apply(T({1, 11}), 1);
  s.Apply(T({1, 12}), 1);
  s.Apply(T({3, 13}), 1);
  const Relation j = NaturalJoin(r, s, nullptr);
  ASSERT_EQ(j.columns().size(), 3u);  // uid, x, y
  EXPECT_EQ(j.Count(T({1, 100, 11})), 1);
  EXPECT_EQ(j.Count(T({1, 100, 12})), 1);
  EXPECT_EQ(j.DistinctSize(), 2u);
}

TEST(NaturalJoinTest, MultiplicitiesMultiply) {
  Relation r({"k"});
  r.Apply(T({1}), 2);
  Relation s({"k"});
  s.Apply(T({1}), 3);
  const Relation j = NaturalJoin(r, s, nullptr);
  EXPECT_EQ(j.Count(T({1})), 6);
}

TEST(NaturalJoinTest, NegativeDeltasPropagate) {
  // Counting algorithm: a deleted left tuple joins with count -1.
  Relation delta({"k", "x"});
  delta.Apply(T({1, 10}), -1);
  Relation s({"k", "y"});
  s.Apply(T({1, 5}), 2);
  const Relation j = NaturalJoin(delta, s, nullptr);
  EXPECT_EQ(j.Count(T({1, 10, 5})), -2);
}

TEST(NaturalJoinTest, NoSharedColumnsIsCrossProduct) {
  Relation r({"a"});
  r.Apply(T({1}), 1);
  r.Apply(T({2}), 1);
  Relation s({"b"});
  s.Apply(T({7}), 1);
  const Relation j = NaturalJoin(r, s, nullptr);
  EXPECT_EQ(j.DistinctSize(), 2u);
  EXPECT_EQ(j.Count(T({1, 7})), 1);
}

TEST(NaturalJoinTest, WorkCounterCountsProbedPairs) {
  Relation r({"k"});
  r.Apply(T({1}), 1);
  r.Apply(T({2}), 1);
  Relation s({"k"});
  s.Apply(T({1}), 1);
  uint64_t work = 0;
  (void)NaturalJoin(r, s, &work);
  EXPECT_EQ(work, 1u);
}

TEST(NaturalJoinTest, MultipleSharedColumns) {
  Relation r({"a", "b", "x"});
  r.Apply(T({1, 2, 9}), 1);
  Relation s({"a", "b", "y"});
  s.Apply(T({1, 2, 8}), 1);
  s.Apply(T({1, 3, 7}), 1);
  const Relation j = NaturalJoin(r, s, nullptr);
  EXPECT_EQ(j.DistinctSize(), 1u);
  EXPECT_EQ(j.Count(T({1, 2, 9, 8})), 1);
}

}  // namespace
}  // namespace dsm
