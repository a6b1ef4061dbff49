// Property and oracle tests for the compact columnar data plane
// (DESIGN.md §12):
//  * every relational kernel — NaturalJoin (transient index, and prepared
//    shape with a persistent index; natural and caller-ordered output on
//    random schemas), Filter, BagEquals —
//    matches a nested-loop oracle over plain vector<pair<Tuple, int64_t>>
//    bags that never touches slots, hashes or the row store;
//  * a join written in a caller's column order stores every row under
//    the hash of its slots in that order, so later merges find it;
//  * a store filled by Append (as a join fills its output) answers Count,
//    FindRow, BagEquals and Apply like the oracle bag, before and after its
//    lazily built table exists, and so does a copy-on-write copy of it;
//  * the row hash separates every small-domain row of arity 1-3, spreads
//    structured rows evenly over the low bits, and tells a row from its
//    permutation;
//  * the pre-hashed tables stay correct under forced hash collisions
//    (probe chains, tombstones, row-id recycling), appended rows included,
//    and the lazy table build refuses a row appended twice;
//  * Relation::Filter on an absent column shares the row store instead of
//    copying it, and the first later mutation pays exactly one deep copy.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "maintain/relation.h"
#include "maintain/tuple_store.h"
#include "maintain/value_dict.h"

namespace dsm {
namespace {

using Bag = std::vector<std::pair<Tuple, int64_t>>;

Value RandomValue(Rng& rng) {
  switch (rng.UniformInt(0, 3)) {
    case 0:
      return Value(rng.UniformInt(-5, 5));
    case 1:
      return Value(static_cast<double>(rng.UniformInt(-4, 4)) / 2.0);
    case 2:
      return Value(kInlineIntMax + rng.UniformInt(1, 3));  // wide-int path
    default:
      return Value("s" + std::to_string(rng.UniformInt(0, 6)));
  }
}

Bag RandomBag(Rng& rng, size_t arity, int rows) {
  Bag bag;
  for (int i = 0; i < rows; ++i) {
    Tuple t;
    for (size_t c = 0; c < arity; ++c) t.push_back(RandomValue(rng));
    bag.emplace_back(std::move(t), rng.Bernoulli(0.25) ? 2 : 1);
  }
  return bag;
}

Relation Materialize(const std::vector<std::string>& columns,
                     const Bag& bag) {
  Relation rel(columns);
  for (const auto& [tuple, count] : bag) rel.Apply(tuple, count);
  return rel;
}

std::vector<Slot> EncodeTuple(const Tuple& tuple) {
  std::vector<Slot> slots;
  for (const Value& v : tuple) slots.push_back(ValueDict::Global().Encode(v));
  return slots;
}

// A relation whose rows were appended, as a join writes its output:
// `bag` must hold distinct tuples with nonzero counts.
Relation Appended(const std::vector<std::string>& columns, const Bag& bag) {
  TupleStore rows(static_cast<uint32_t>(columns.size()));
  for (const auto& [tuple, count] : bag) {
    const std::vector<Slot> slots = EncodeTuple(tuple);
    rows.Append(slots.data(), HashTupleSlots(slots.data(), slots.size()),
                count);
  }
  return Relation(columns, std::move(rows));
}

// --- the oracle: plain bags, nested loops --------------------------------

// Sorted, one entry per distinct tuple, zero counts dropped.
Bag Canonical(Bag bag) {
  std::sort(bag.begin(), bag.end());
  Bag out;
  for (auto& [tuple, count] : bag) {
    if (!out.empty() && out.back().first == tuple) {
      out.back().second += count;
    } else {
      out.emplace_back(std::move(tuple), count);
    }
    if (out.back().second == 0) out.pop_back();
  }
  return out;
}

// The relation's rows as stored, sorted but not merged: a bag that keeps
// one tuple in two rows, or a row at count zero, does not compare equal to
// a canonical bag.
Bag Decode(const Relation& rel) {
  Bag bag;
  rel.ForEachRow([&](const Tuple& tuple, int64_t count) {
    bag.emplace_back(tuple, count);
  });
  std::sort(bag.begin(), bag.end());
  return bag;
}

int Position(const std::vector<std::string>& columns,
             const std::string& name) {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == name) return static_cast<int>(i);
  }
  return -1;
}

Tuple Gather(const Tuple& tuple, const std::vector<int>& positions) {
  Tuple out;
  for (const int p : positions) out.push_back(tuple[static_cast<size_t>(p)]);
  return out;
}

// Natural join of two canonical bags; `pairs` counts the (a row, b row)
// pairs that agree on every shared column — the join's `work`.
Bag OracleJoin(const std::vector<std::string>& a_columns, const Bag& a,
               const std::vector<std::string>& b_columns, const Bag& b,
               uint64_t* pairs) {
  std::vector<int> shared_a, shared_b, b_extra;
  for (size_t i = 0; i < b_columns.size(); ++i) {
    const int in_a = Position(a_columns, b_columns[i]);
    if (in_a >= 0) {
      shared_a.push_back(in_a);
      shared_b.push_back(static_cast<int>(i));
    } else {
      b_extra.push_back(static_cast<int>(i));
    }
  }
  Bag out;
  for (const auto& [ta, ca] : a) {
    for (const auto& [tb, cb] : b) {
      if (Gather(ta, shared_a) != Gather(tb, shared_b)) continue;
      ++*pairs;
      Tuple joined = ta;
      for (const Value& v : Gather(tb, b_extra)) joined.push_back(v);
      out.emplace_back(std::move(joined), ca * cb);
    }
  }
  return Canonical(std::move(out));
}

Bag OracleGather(const Bag& bag, const std::vector<int>& positions) {
  Bag out;
  for (const auto& [tuple, count] : bag) {
    out.emplace_back(Gather(tuple, positions), count);
  }
  return Canonical(std::move(out));
}

class ColumnarPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ColumnarPropertyTest, JoinMatchesNestedLoopOracle) {
  Rng rng(GetParam());
  struct Shape {
    std::vector<std::string> a, b;
    int rows;
  };
  const std::vector<Shape> shapes = {
      {{"k", "a1"}, {"k", "b1"}, 60},                // one key column
      {{"k", "a1", "j"}, {"j", "b1", "k"}, 80},      // two, permuted
      {{"a1", "a2"}, {"b1"}, 20},                    // cross product
      {{"k", "j"}, {"j", "k"}, 60},                  // every column shared
  };
  for (size_t i = 0; i < shapes.size(); ++i) {
    SCOPED_TRACE("shape " + std::to_string(i));
    const Shape& shape = shapes[i];
    const Bag bag_a = RandomBag(rng, shape.a.size(), shape.rows);
    const Bag bag_b = RandomBag(rng, shape.b.size(), shape.rows);
    const Relation a = Materialize(shape.a, bag_a);
    Relation b = Materialize(shape.b, bag_b);

    uint64_t pairs = 0;
    const Bag expected = OracleJoin(shape.a, Canonical(bag_a), shape.b,
                                    Canonical(bag_b), &pairs);
    uint64_t work = 0;
    const Relation joined = NaturalJoin(a, b, &work);
    EXPECT_GT(pairs, 0u);  // the inputs do meet; no vacuous agreement
    EXPECT_EQ(Decode(joined), expected);
    EXPECT_EQ(work, pairs);

    // Persistent index, then patched in place: more rows arrive and some
    // existing rows are deleted before the indexed join runs.
    const Relation::JoinIndex* index =
        b.EnsureIndex(SharedJoinColumns(shape.a, b));
    Bag final_b = bag_b;
    for (auto& [tuple, count] : RandomBag(rng, shape.b.size(), 20)) {
      b.Apply(tuple, count);
      final_b.emplace_back(std::move(tuple), count);
    }
    for (size_t i = 0; i < bag_b.size(); i += 3) {
      b.Apply(bag_b[i].first, -bag_b[i].second);
      final_b.emplace_back(bag_b[i].first, -bag_b[i].second);
    }
    uint64_t indexed_pairs = 0;
    const Bag indexed_expected = OracleJoin(
        shape.a, Canonical(bag_a), shape.b, Canonical(final_b),
        &indexed_pairs);
    uint64_t indexed_work = 0;
    EXPECT_EQ(Decode(NaturalJoin(a, b, PrepareJoin(shape.a, shape.b),
                                 *index, &indexed_work)),
              indexed_expected);
    EXPECT_EQ(indexed_work, indexed_pairs);
  }
}

TEST_P(ColumnarPropertyTest, FilterMatchesOracle) {
  Rng rng(GetParam());
  const std::vector<std::string> columns = {"a", "b", "c"};
  const Bag bag = RandomBag(rng, columns.size(), 80);
  const Relation rel = Materialize(columns, bag);
  for (const CompareOp op : {CompareOp::kLt, CompareOp::kGt, CompareOp::kEq}) {
    for (const double constant : {-2.0, 0.0, 0.5, 3.0}) {
      Bag expected;
      for (const auto& [tuple, count] : bag) {
        if (ValueSatisfies(tuple[1], op, constant)) {
          expected.emplace_back(tuple, count);
        }
      }
      const Relation filtered = rel.Filter("b", op, constant);
      EXPECT_EQ(filtered.columns(), columns);
      EXPECT_EQ(Decode(filtered), Canonical(expected))
          << "op=" << static_cast<int>(op) << " c=" << constant;
    }
  }
  // A column outside the schema filters nothing.
  EXPECT_EQ(Decode(rel.Filter("absent", CompareOp::kLt, 0.0)),
            Canonical(bag));
}

TEST_P(ColumnarPropertyTest, ReorderMatchesOracle) {
  // The join of random schemas written in a random permutation of its
  // natural columns, by the transient overload and by the prepared one
  // (PrepareJoin, then a persistent index): the oracle's join permuted,
  // the same work, and every row stored under the hash of its slots in the
  // new order.
  Rng rng(GetParam());
  const std::vector<std::string> names = {"k", "j", "m", "x", "y", "z"};
  for (int trial = 0; trial < 8; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    // 0-2 shared columns, then 0-2 private ones on each side (at least
    // one column each), every schema in a random order.
    std::vector<std::string> pool = names;
    for (size_t k = pool.size(); k > 1; --k) {
      std::swap(pool[k - 1], pool[static_cast<size_t>(rng.UniformInt(
                                 0, static_cast<int64_t>(k) - 1))]);
    }
    const auto shared = static_cast<size_t>(rng.UniformInt(0, 2));
    const auto a_own = static_cast<size_t>(rng.UniformInt(shared == 0, 2));
    const auto b_own = static_cast<size_t>(rng.UniformInt(shared == 0, 2));
    std::vector<std::string> a_columns(pool.begin(),
                                       pool.begin() + shared + a_own);
    std::vector<std::string> b_columns(pool.begin(), pool.begin() + shared);
    b_columns.insert(b_columns.end(), pool.begin() + shared + a_own,
                     pool.begin() + shared + a_own + b_own);
    for (std::vector<std::string>* columns : {&a_columns, &b_columns}) {
      for (size_t k = columns->size(); k > 1; --k) {
        std::swap((*columns)[k - 1],
                  (*columns)[static_cast<size_t>(
                      rng.UniformInt(0, static_cast<int64_t>(k) - 1))]);
      }
    }
    std::vector<std::string> natural = a_columns;
    for (const std::string& name : b_columns) {
      if (Position(a_columns, name) < 0) natural.push_back(name);
    }

    const Bag bag_a = RandomBag(rng, a_columns.size(), 60);
    Bag bag_b = RandomBag(rng, b_columns.size(), 60);
    // Half of b's rows take their join key from a row of a, so the
    // inputs meet on every schema.
    for (size_t r = 0; r < bag_b.size(); r += 2) {
      const Tuple& from = bag_a[static_cast<size_t>(rng.UniformInt(
                                    0, static_cast<int64_t>(bag_a.size()) -
                                           1))]
                              .first;
      for (size_t c = 0; c < b_columns.size(); ++c) {
        const int in_a = Position(a_columns, b_columns[c]);
        if (in_a >= 0) bag_b[r].first[c] = from[static_cast<size_t>(in_a)];
      }
    }
    const Relation a = Materialize(a_columns, bag_a);
    Relation b = Materialize(b_columns, bag_b);
    std::vector<int> positions(natural.size());
    for (size_t i = 0; i < positions.size(); ++i) {
      positions[i] = static_cast<int>(i);
    }
    for (size_t k = positions.size(); k > 1; --k) {
      std::swap(positions[k - 1], positions[static_cast<size_t>(rng.UniformInt(
                                      0, static_cast<int64_t>(k) - 1))]);
    }
    std::vector<std::string> order;
    for (const int p : positions) {
      order.push_back(natural[static_cast<size_t>(p)]);
    }

    uint64_t pairs = 0;
    const Bag expected = OracleGather(
        OracleJoin(a_columns, Canonical(bag_a), b_columns, Canonical(bag_b),
                   &pairs),
        positions);
    EXPECT_GT(pairs, 0u);
    const JoinShape prepared = PrepareJoin(a_columns, b_columns, &order);
    EXPECT_EQ(prepared.out_columns, order);
    const Relation::JoinIndex* index =
        b.EnsureIndex(SharedJoinColumns(a_columns, b));
    uint64_t work = 0;
    uint64_t prepared_work = 0;
    const Relation transient = NaturalJoin(a, b, &work, &order);
    for (const Relation& joined :
         {transient, NaturalJoin(a, b, prepared, *index, &prepared_work)}) {
      EXPECT_EQ(joined.columns(), order);
      EXPECT_EQ(Decode(joined), expected);
      EXPECT_TRUE(joined.BagEquals(transient));
      const TupleStore& rows = joined.store();
      rows.ForEachLive([&](uint32_t r) {
        EXPECT_EQ(rows.row_hash(r),
                  HashTupleSlots(rows.row_slots(r), rows.arity()));
      });
      // Taking the join back out of the oracle's bag, built row by row in
      // the same order, leaves nothing: every merge found its row.
      Relation target = Materialize(order, expected);
      target.ApplyAll(joined, -1);
      EXPECT_EQ(target.DistinctSize(), 0u);
    }
    EXPECT_EQ(work, pairs);
    EXPECT_EQ(prepared_work, pairs);
  }
}

TEST_P(ColumnarPropertyTest, BagEqualsMatchesOracle) {
  Rng rng(GetParam());
  const std::vector<std::string> columns = {"x", "y", "z"};
  const Bag bag = RandomBag(rng, columns.size(), 50);
  const Relation rel = Materialize(columns, bag);
  // The same bag built in another order, from its canonical form.
  const Bag canonical = Canonical(bag);
  const Relation same = Materialize(columns, Bag(canonical.rbegin(),
                                                 canonical.rend()));
  EXPECT_TRUE(rel.BagEquals(same));
  EXPECT_TRUE(same.BagEquals(rel));

  // Any one-tuple perturbation breaks equality, in either direction:
  // a count change on a present tuple, and a tuple the bag lacks.
  Relation bumped = same;
  bumped.Apply(bag.front().first, +1);
  EXPECT_FALSE(rel.BagEquals(bumped));
  EXPECT_FALSE(bumped.BagEquals(rel));
  Relation extra = same;
  const Tuple fresh = {Value(std::string("fresh")), Value(int64_t{0}),
                       Value(0.5)};
  extra.Apply(fresh, 1);
  EXPECT_FALSE(rel.BagEquals(extra));
  EXPECT_FALSE(extra.BagEquals(rel));
  // Undoing the perturbation restores equality.
  bumped.Apply(bag.front().first, -1);
  EXPECT_TRUE(rel.BagEquals(bumped));
}

TEST_P(ColumnarPropertyTest, AppendedRowsMatchOracle) {
  Rng rng(GetParam());
  const std::vector<std::string> columns = {"x", "y", "z"};
  const Bag oracle = Canonical(RandomBag(rng, columns.size(), 60));
  ASSERT_GT(oracle.size(), 2u);
  const Tuple absent = {Value(std::string("absent")), Value(int64_t{0}),
                        Value(0.5)};

  // Lookups first: the first Count builds the table from stored hashes.
  const Relation looked_up = Appended(columns, oracle);
  EXPECT_EQ(looked_up.DistinctSize(), oracle.size());
  EXPECT_EQ(Decode(looked_up), oracle);
  for (const auto& [tuple, count] : oracle) {
    EXPECT_EQ(looked_up.Count(tuple), count);
    const std::vector<Slot> slots = EncodeTuple(tuple);
    const TupleStore& rows = looked_up.store();
    const uint32_t row =
        rows.FindRow(slots.data(), HashTupleSlots(slots.data(), 3));
    ASSERT_NE(row, TupleStore::kNoRow);
    EXPECT_TRUE(std::equal(slots.begin(), slots.end(), rows.row_slots(row)));
  }
  EXPECT_EQ(looked_up.Count(absent), 0);

  // BagEquals both ways against the same bag merged row by row, before
  // either appended relation has a table.
  const Relation merged = Materialize(columns, oracle);
  const Relation fresh = Appended(columns, oracle);
  EXPECT_TRUE(fresh.BagEquals(merged));
  EXPECT_TRUE(merged.BagEquals(Appended(columns, oracle)));

  // Apply straight onto appended rows, with no lookup before it: delete
  // one appended row, raise another, add a new one.
  Bag expected = oracle;
  Relation applied = Appended(columns, oracle);
  applied.Apply(oracle[0].first, -oracle[0].second);
  applied.Apply(oracle[1].first, 3);
  applied.Apply(absent, 2);
  expected.emplace_back(oracle[0].first, -oracle[0].second);
  expected.emplace_back(oracle[1].first, 3);
  expected.emplace_back(absent, 2);
  expected = Canonical(std::move(expected));
  EXPECT_EQ(Decode(applied), expected);
  EXPECT_EQ(applied.Count(oracle[0].first), 0);
  EXPECT_EQ(applied.Count(oracle[1].first), oracle[1].second + 3);
  EXPECT_EQ(applied.Count(absent), 2);
  EXPECT_TRUE(applied.BagEquals(Materialize(columns, expected)));

  // A copy-on-write copy taken before any lookup: its first mutation
  // deep-copies the stale store, and both sides stay right.
  const Relation original = Appended(columns, oracle);
  Relation copy = original;
  EXPECT_EQ(&copy.store(), &original.store());
  copy.Apply(oracle[0].first, -oracle[0].second);
  copy.ApplyAll(Materialize(columns, Bag{{absent, 1}}));
  EXPECT_NE(&copy.store(), &original.store());
  EXPECT_EQ(copy.Count(oracle[0].first), 0);
  EXPECT_EQ(copy.Count(absent), 1);
  EXPECT_EQ(copy.DistinctSize(), oracle.size());
  EXPECT_EQ(original.Count(oracle[0].first), oracle[0].second);
  EXPECT_EQ(original.Count(absent), 0);
  EXPECT_EQ(Decode(original), oracle);

  // Taking the appended bag back out of a merged copy leaves nothing.
  Relation target = Materialize(columns, oracle);
  target.ApplyAll(Appended(columns, oracle), -1);
  EXPECT_EQ(target.DistinctSize(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnarPropertyTest,
                         ::testing::Values(3, 17, 4242, 90210));

TEST(TupleStoreCollisionTest, ForcedCollisionsKeepTuplesDistinct) {
  // Drive 48 distinct tuples into one probe chain (same hash), through
  // several rehashes, half-deletion (tombstones) and row-id recycling. A
  // table that ever trusts the hash alone, or drops a chain across a
  // tombstone, fails this.
  TupleStore store(1);
  constexpr uint64_t kHash = 0x9e3779b97f4a7c15ull;
  constexpr uint64_t kN = 48;
  for (uint64_t i = 0; i < kN; ++i) {
    const Slot s = MakeSlot(SlotTag::kInlineInt, i);
    store.ApplyWithHashForTest(&s, kHash, static_cast<int64_t>(i + 1));
  }
  EXPECT_EQ(store.live_rows(), kN);
  for (uint64_t i = 0; i < kN; ++i) {
    const Slot s = MakeSlot(SlotTag::kInlineInt, i);
    EXPECT_EQ(store.Count(&s, kHash), static_cast<int64_t>(i + 1)) << i;
  }
  // Delete the even tuples; odd survivors must stay reachable through the
  // tombstones left mid-chain.
  for (uint64_t i = 0; i < kN; i += 2) {
    const Slot s = MakeSlot(SlotTag::kInlineInt, i);
    store.ApplyWithHashForTest(&s, kHash, -static_cast<int64_t>(i + 1));
  }
  EXPECT_EQ(store.live_rows(), kN / 2);
  for (uint64_t i = 0; i < kN; ++i) {
    const Slot s = MakeSlot(SlotTag::kInlineInt, i);
    EXPECT_EQ(store.Count(&s, kHash),
              i % 2 == 0 ? 0 : static_cast<int64_t>(i + 1))
        << i;
  }
  // Reinsert the deleted half: recycled row ids, still all distinct.
  for (uint64_t i = 0; i < kN; i += 2) {
    const Slot s = MakeSlot(SlotTag::kInlineInt, i);
    store.ApplyWithHashForTest(&s, kHash, 7);
  }
  EXPECT_EQ(store.live_rows(), kN);
  for (uint64_t i = 0; i < kN; i += 2) {
    const Slot s = MakeSlot(SlotTag::kInlineInt, i);
    EXPECT_EQ(store.Count(&s, kHash), 7) << i;
  }
}

TEST(TupleStoreCollisionTest, ForcedCollisionsOnAppendedRows) {
  // The same chain, but filled by Append: the lazy table build must place
  // every appended row, the later probes must walk its chain, and a second
  // round of appends must make the table stale again.
  TupleStore store(1);
  constexpr uint64_t kHash = 0x9e3779b97f4a7c15ull;
  constexpr uint64_t kN = 48;
  for (uint64_t i = 0; i < kN; ++i) {
    const Slot s = MakeSlot(SlotTag::kInlineInt, i);
    store.Append(&s, kHash, static_cast<int64_t>(i + 1));
  }
  EXPECT_EQ(store.live_rows(), kN);
  for (uint64_t i = 0; i < kN; ++i) {
    const Slot s = MakeSlot(SlotTag::kInlineInt, i);
    EXPECT_EQ(store.Count(&s, kHash), static_cast<int64_t>(i + 1)) << i;
  }
  // Delete the even tuples through the built table.
  for (uint64_t i = 0; i < kN; i += 2) {
    const Slot s = MakeSlot(SlotTag::kInlineInt, i);
    store.ApplyWithHashForTest(&s, kHash, -static_cast<int64_t>(i + 1));
  }
  // Append a second run into the same chain, past the recyclable ids.
  for (uint64_t i = kN; i < 2 * kN; ++i) {
    const Slot s = MakeSlot(SlotTag::kInlineInt, i);
    store.Append(&s, kHash, 5);
  }
  EXPECT_EQ(store.live_rows(), kN / 2 + kN);
  for (uint64_t i = 0; i < 2 * kN; ++i) {
    const Slot s = MakeSlot(SlotTag::kInlineInt, i);
    const int64_t want =
        i >= kN ? 5 : (i % 2 == 0 ? 0 : static_cast<int64_t>(i + 1));
    EXPECT_EQ(store.Count(&s, kHash), want) << i;
  }
  // Reinsert the deleted half by Apply: recycled ids, still distinct.
  for (uint64_t i = 0; i < kN; i += 2) {
    const Slot s = MakeSlot(SlotTag::kInlineInt, i);
    store.ApplyWithHashForTest(&s, kHash, 7);
  }
  EXPECT_EQ(store.live_rows(), 2 * kN);
  for (uint64_t i = 0; i < kN; i += 2) {
    const Slot s = MakeSlot(SlotTag::kInlineInt, i);
    EXPECT_EQ(store.Count(&s, kHash), 7) << i;
  }
}

// Every row of arity 1-3 whose slots are drawn from `domain` values of
// one tag, in row-major order.
std::vector<std::vector<Slot>> SmallDomainRows(SlotTag tag, uint64_t domain) {
  std::vector<std::vector<Slot>> rows;
  for (size_t arity = 1; arity <= 3; ++arity) {
    uint64_t count = 1;
    for (size_t c = 0; c < arity; ++c) count *= domain;
    for (uint64_t n = 0; n < count; ++n) {
      std::vector<Slot> row(arity);
      uint64_t rest = n;
      for (size_t c = 0; c < arity; ++c, rest /= domain) {
        row[c] = MakeSlot(tag, rest % domain);
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

TEST(RowHashTest, NoCollisionOnSmallDomains) {
  // 64 values per slot, arity 1-3, inline ints and string ids: 266,304
  // rows per tag, and no two share a 64-bit hash, within an arity or
  // across arities.
  for (const SlotTag tag : {SlotTag::kInlineInt, SlotTag::kString}) {
    std::vector<uint64_t> hashes;
    for (const std::vector<Slot>& row : SmallDomainRows(tag, 64)) {
      hashes.push_back(HashTupleSlots(row.data(), row.size()));
    }
    EXPECT_EQ(hashes.size(), 64u + 64u * 64u + 64u * 64u * 64u);
    std::sort(hashes.begin(), hashes.end());
    EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()), hashes.end())
        << "tag " << static_cast<uint64_t>(tag);
  }
}

TEST(RowHashTest, LowBitsSpreadEvenly) {
  // Open addressing masks the low bits of the hash. 100,000 structured
  // rows (arity 2, both slots small and correlated) over 1,024 buckets:
  // every bucket is used, none holds twice its share, and Pearson's
  // chi-square stays within 6 standard deviations of its mean (1,023).
  constexpr int kRows = 100000;
  constexpr int kBuckets = 1024;
  std::vector<int> buckets(kBuckets, 0);
  for (int i = 0; i < kRows; ++i) {
    const Slot row[2] = {
        MakeSlot(SlotTag::kInlineInt, static_cast<uint64_t>(i % 317)),
        MakeSlot(SlotTag::kInlineInt, static_cast<uint64_t>(i / 317))};
    ++buckets[HashTupleSlots(row, 2) & (kBuckets - 1)];
  }
  const double expected = static_cast<double>(kRows) / kBuckets;
  double chi_square = 0.0;
  for (const int n : buckets) {
    EXPECT_GT(n, 0);
    EXPECT_LT(n, 2 * expected);
    chi_square += (n - expected) * (n - expected) / expected;
  }
  EXPECT_LT(chi_square, 1023.0 + 6.0 * std::sqrt(2.0 * 1023.0));
}

TEST(RowHashTest, SlotOrderMatters) {
  // (a, b) and (b, a) hash apart: a join writes rows in its caller's
  // column order, and a row must not collide with its own permutation.
  for (uint64_t a = 0; a < 64; ++a) {
    for (uint64_t b = a + 1; b < 64; ++b) {
      const Slot ab[2] = {MakeSlot(SlotTag::kInlineInt, a),
                          MakeSlot(SlotTag::kInlineInt, b)};
      const Slot ba[2] = {ab[1], ab[0]};
      EXPECT_NE(HashTupleSlots(ab, 2), HashTupleSlots(ba, 2)) << a << "," << b;
    }
  }
}

TEST(TupleStoreDeathTest, RowAppendedTwiceFailsTheTableBuild) {
  // Append's caller promises the row is absent; with asserts on, the lazy
  // table build checks that promise for every pair of rows in a chain.
  TupleStore store(2);
  const Slot row[2] = {MakeSlot(SlotTag::kInlineInt, 4),
                       MakeSlot(SlotTag::kInlineInt, 2)};
  const uint64_t hash = HashTupleSlots(row, 2);
  store.Append(row, hash, 1);
  store.Append(row, hash, 1);
  EXPECT_DEBUG_DEATH(store.Count(row, hash), "appended twice");
}

Tuple T2(int64_t a, int64_t b) { return Tuple{Value(a), Value(b)}; }

TEST(RelationCowTest, FilterOnAbsentColumnSharesTheStore) {
  Relation rel({"a", "b"});
  for (int64_t i = 0; i < 100; ++i) rel.Apply(T2(i, i % 7), 1);

  const TupleStoreStats& stats = TupleStoreStats::Global();
  const uint64_t copies_before =
      stats.deep_copies.load(std::memory_order_relaxed);
  Relation same = rel.Filter("absent_column", CompareOp::kLt, 3.0);
  // The unfiltered result is the same store, not a copy of it.
  EXPECT_EQ(&same.store(), &rel.store());
  EXPECT_EQ(stats.deep_copies.load(std::memory_order_relaxed),
            copies_before);
  EXPECT_TRUE(same.BagEquals(rel));

  // Copy-on-write: the first mutation of the shared result pays exactly
  // one deep copy and leaves the original untouched.
  same.Apply(T2(999, 999), 1);
  EXPECT_EQ(stats.deep_copies.load(std::memory_order_relaxed),
            copies_before + 1);
  EXPECT_NE(&same.store(), &rel.store());
  EXPECT_EQ(rel.Count(T2(999, 999)), 0);
  EXPECT_EQ(same.Count(T2(999, 999)), 1);

  // Mutating the *original* after the fork is also copy-free: it is the
  // store's sole owner again.
  const uint64_t copies_after_fork =
      stats.deep_copies.load(std::memory_order_relaxed);
  rel.Apply(T2(555, 555), 1);
  EXPECT_EQ(stats.deep_copies.load(std::memory_order_relaxed),
            copies_after_fork);
  EXPECT_EQ(same.Count(T2(555, 555)), 0);
}

}  // namespace
}  // namespace dsm
