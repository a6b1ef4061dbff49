// Unit tests for the process-wide value dictionary and the tagged 8-byte
// slot encoding (maintain/value_dict.h): round trips across the whole
// Value domain, canonical interning (equal Values <=> equal slots), the
// no-intern Find path, and SlotSatisfies/ValueSatisfies agreement.

#include "maintain/value_dict.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "maintain/value.h"

namespace dsm {
namespace {

TEST(SlotEncodingTest, InlineIntRoundTrip) {
  ValueDict& dict = ValueDict::Global();
  const std::vector<int64_t> ints = {
      0, 1, -1, 42, -42, 1 << 20, -(1 << 20), kInlineIntMax, kInlineIntMin,
      kInlineIntMax - 1, kInlineIntMin + 1};
  for (const int64_t v : ints) {
    const Slot s = dict.Encode(Value(v));
    EXPECT_EQ(GetSlotTag(s), SlotTag::kInlineInt) << v;
    EXPECT_EQ(InlineIntValue(s), v);
    EXPECT_EQ(dict.Decode(s), Value(v));
  }
}

TEST(SlotEncodingTest, WideIntTakesDictionaryPath) {
  ValueDict& dict = ValueDict::Global();
  const std::vector<int64_t> wides = {
      kInlineIntMax + 1, kInlineIntMin - 1,
      std::numeric_limits<int64_t>::max(),
      std::numeric_limits<int64_t>::min()};
  for (const int64_t v : wides) {
    const Slot s = dict.Encode(Value(v));
    EXPECT_EQ(GetSlotTag(s), SlotTag::kWideInt) << v;
    EXPECT_EQ(dict.Decode(s), Value(v));
    // Canonical: re-encoding yields the identical slot.
    EXPECT_EQ(dict.Encode(Value(v)), s);
  }
}

TEST(SlotEncodingTest, DoubleRoundTripAndNegativeZeroCanonical) {
  ValueDict& dict = ValueDict::Global();
  for (const double v : {3.25, -3.25, 0.5, 1e300, -1e-300, 0.0}) {
    const Slot s = dict.Encode(Value(v));
    EXPECT_EQ(GetSlotTag(s), SlotTag::kDouble) << v;
    EXPECT_EQ(dict.Decode(s), Value(v));
  }
  // -0.0 == +0.0 as Values, so they must share one slot.
  EXPECT_EQ(dict.Encode(Value(-0.0)), dict.Encode(Value(0.0)));
}

TEST(SlotEncodingTest, IntAndDoubleOfSameMagnitudeStayDistinct) {
  ValueDict& dict = ValueDict::Global();
  // Value(5) != Value(5.0) (different variant alternatives); the slots
  // must differ too, or a bag would merge two distinct tuples into one row.
  EXPECT_NE(dict.Encode(Value(int64_t{5})), dict.Encode(Value(5.0)));
}

TEST(SlotEncodingTest, StringRoundTripAndCanonicalInterning) {
  ValueDict& dict = ValueDict::Global();
  const Slot a1 = dict.Encode(Value(std::string("alpha")));
  const Slot a2 = dict.Encode(Value(std::string("alpha")));
  const Slot b = dict.Encode(Value(std::string("beta")));
  const Slot empty = dict.Encode(Value(std::string()));
  EXPECT_EQ(GetSlotTag(a1), SlotTag::kString);
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_NE(a1, empty);
  EXPECT_EQ(dict.Decode(a1), Value(std::string("alpha")));
  EXPECT_EQ(dict.Decode(empty), Value(std::string()));
}

TEST(SlotEncodingTest, FindDoesNotIntern) {
  ValueDict& dict = ValueDict::Global();
  const size_t before = dict.num_entries();
  Slot out = 0;
  // A never-encoded value is not found and does not grow the dictionary.
  EXPECT_FALSE(
      dict.Find(Value(std::string("value-dict-test-never-interned")), &out));
  EXPECT_EQ(dict.num_entries(), before);
  // Inline ints need no dictionary and always resolve.
  EXPECT_TRUE(dict.Find(Value(int64_t{17}), &out));
  EXPECT_EQ(InlineIntValue(out), 17);
  // Once encoded, Find returns the canonical slot.
  const Slot interned =
      dict.Encode(Value(std::string("value-dict-test-interned")));
  EXPECT_TRUE(
      dict.Find(Value(std::string("value-dict-test-interned")), &out));
  EXPECT_EQ(out, interned);
}

TEST(SlotEncodingTest, SlotNumericMatchesValueKind) {
  ValueDict& dict = ValueDict::Global();
  double out = 0.0;
  EXPECT_TRUE(dict.SlotNumeric(dict.Encode(Value(int64_t{-7})), &out));
  EXPECT_EQ(out, -7.0);
  EXPECT_TRUE(dict.SlotNumeric(dict.Encode(Value(2.5)), &out));
  EXPECT_EQ(out, 2.5);
  EXPECT_TRUE(
      dict.SlotNumeric(dict.Encode(Value(kInlineIntMax + 2)), &out));
  EXPECT_EQ(out, static_cast<double>(kInlineIntMax + 2));
  EXPECT_FALSE(dict.SlotNumeric(dict.Encode(Value(std::string("x"))), &out));
}

TEST(SlotEncodingTest, SlotSatisfiesAgreesWithValueSatisfies) {
  ValueDict& dict = ValueDict::Global();
  const std::vector<Value> values = {
      Value(int64_t{0}),  Value(int64_t{3}),  Value(int64_t{-3}),
      Value(3.0),         Value(2.5),         Value(-0.0),
      Value(kInlineIntMax), Value(kInlineIntMin - 1),
      Value(std::string("str")), Value(std::string())};
  const std::vector<double> constants = {-3.0, 0.0, 2.5, 3.0, 100.0};
  for (const Value& v : values) {
    const Slot s = dict.Encode(v);
    for (const CompareOp op :
         {CompareOp::kLt, CompareOp::kGt, CompareOp::kEq}) {
      for (const double c : constants) {
        EXPECT_EQ(SlotSatisfies(s, op, c), ValueSatisfies(v, op, c))
            << ValueToString(v) << " op=" << static_cast<int>(op)
            << " c=" << c;
      }
    }
  }
}

}  // namespace
}  // namespace dsm
