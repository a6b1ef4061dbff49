// Process-wide value dictionary: every Value encodes to a tagged 8-byte
// Slot, so a tuple becomes a flat fixed-width uint64_t array with no
// per-probe allocation or string comparison anywhere in the data plane.
//
// Encoding (tag = top 2 bits, payload = low 62):
//   kInlineInt  int64 in [-2^61, 2^61): stored directly (sign bits folded
//               into the payload). The overwhelmingly common case — no
//               dictionary traffic at all.
//   kString     payload is the id of an interned string. Interning is
//               canonical: equal strings always get the same id, so slot
//               equality IS string equality and probes never touch bytes.
//   kDouble     payload is the id of an interned double (by bit pattern,
//               with -0.0 canonicalized to +0.0 so Value equality and slot
//               equality agree). NaN payloads are unsupported: NaN != NaN
//               as a Value, so no slot can represent it consistently.
//   kWideInt    payload is the id of an interned int64 outside the inline
//               range.
//
// Concurrency (DESIGN.md §12): interning takes the writer lock; resolving
// an id takes the reader lock. Maintenance itself is single-threaded, but
// the dictionary is process-wide and nothing stops an embedder from
// running two engines on two threads, so the lock stays until the
// dictionary becomes per-engine.

#ifndef DSM_MAINTAIN_VALUE_DICT_H_
#define DSM_MAINTAIN_VALUE_DICT_H_

#include <cstdint>
#include <deque>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "maintain/value.h"

namespace dsm {

using Slot = uint64_t;

enum class SlotTag : uint64_t {
  kInlineInt = 0,
  kString = 1,
  kDouble = 2,
  kWideInt = 3,
};

inline constexpr int kSlotTagShift = 62;
inline constexpr Slot kSlotPayloadMask = (Slot{1} << kSlotTagShift) - 1;
inline constexpr int64_t kInlineIntMax =
    (int64_t{1} << (kSlotTagShift - 1)) - 1;
inline constexpr int64_t kInlineIntMin = -(int64_t{1} << (kSlotTagShift - 1));

inline SlotTag GetSlotTag(Slot s) {
  return static_cast<SlotTag>(s >> kSlotTagShift);
}
inline uint64_t SlotPayload(Slot s) { return s & kSlotPayloadMask; }
inline Slot MakeSlot(SlotTag tag, uint64_t payload) {
  return (static_cast<uint64_t>(tag) << kSlotTagShift) |
         (payload & kSlotPayloadMask);
}
// Sign-extends a 62-bit inline-int payload.
inline int64_t InlineIntValue(Slot s) {
  return static_cast<int64_t>(s << (64 - kSlotTagShift)) >>
         (64 - kSlotTagShift);
}

class ValueDict {
 public:
  ValueDict() = default;
  ValueDict(const ValueDict&) = delete;
  ValueDict& operator=(const ValueDict&) = delete;

  // The process-wide dictionary every compact relation encodes through.
  // One dictionary per process keeps slots comparable across engines,
  // relations and threads.
  static ValueDict& Global();

  // Canonical slot for `v`, interning on first sight. Equal Values always
  // yield equal slots; distinct Values always yield distinct slots.
  Slot Encode(const Value& v);

  // Lookup without interning: false when `v` was never encoded (a probe
  // for a never-seen value cannot match anything, and must not grow the
  // dictionary). Inline ints always succeed.
  bool Find(const Value& v, Slot* out) const;

  Value Decode(Slot s) const;

  // Numeric view for predicate evaluation; false for strings (string
  // values satisfy no numeric predicate, matching ValueSatisfies).
  bool SlotNumeric(Slot s, double* out) const;

  // Interned entries by kind, and total (the dsm.maintain.dict_entries
  // gauge). Inline ints never intern and are not counted.
  size_t num_strings() const;
  size_t num_entries() const;
  // Approximate heap footprint of the interned payloads and their maps.
  size_t resident_bytes() const;

 private:
  mutable std::shared_mutex mu_;
  // Deques give stable element addresses, so the string_view map keys stay
  // valid across growth.
  std::deque<std::string> strings_;
  std::unordered_map<std::string_view, uint64_t> string_ids_;
  std::deque<double> doubles_;
  std::unordered_map<uint64_t, uint64_t> double_ids_;  // key: bit pattern
  std::deque<int64_t> wide_ints_;
  std::unordered_map<int64_t, uint64_t> wide_ids_;
};

// Out-of-line tail of SlotSatisfies for non-inline tags.
bool SlotSatisfiesSlow(Slot s, CompareOp op, double constant);

// ValueSatisfies over an encoded slot: inline ints (the common case)
// compare without any dictionary access; strings fail without any
// dictionary access; interned doubles / wide ints take one reader-locked
// lookup.
inline bool SlotSatisfies(Slot s, CompareOp op, double constant) {
  if (GetSlotTag(s) == SlotTag::kInlineInt) {
    const auto v = static_cast<double>(InlineIntValue(s));
    switch (op) {
      case CompareOp::kLt:
        return v < constant;
      case CompareOp::kGt:
        return v > constant;
      case CompareOp::kEq:
        return v == constant;
    }
    return false;
  }
  return SlotSatisfiesSlow(s, op, constant);
}

}  // namespace dsm

#endif  // DSM_MAINTAIN_VALUE_DICT_H_
