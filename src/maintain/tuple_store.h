// TupleStore: the compact row store behind every Relation.
//
// A tuple is `arity` contiguous 8-byte slots (maintain/value_dict.h) in one
// row-major flat array; its 64-bit hash is computed once on insert and
// stored next to the row. The store's own hash table is open addressing
// over row ids: a probe compares the stored hash, then (on a hash match)
// memcmps the slots — no per-probe allocation, no string compares, and a
// rehash only reshuffles 4-byte row ids using the stored hashes.
//
// SlotKeyIndex is the matching pre-hashed equi-join index: projected key
// slots -> (row id, count) entries, patched in place by Relation::Apply.
//
// Both tables feed the process-wide TupleStoreStats (probes, rehashes,
// deep copies, resident bytes), which the maintenance engine exports as
// dsm.maintain.* metrics. Mutating entry points count probes directly
// into the relaxed global atomic — every performed probe is visible the
// moment the call returns, which keeps the exported counters
// deterministic for a fixed seed; join kernels batch their index probes
// locally and flush once per join (maintain/relation.cc).

#ifndef DSM_MAINTAIN_TUPLE_STORE_H_
#define DSM_MAINTAIN_TUPLE_STORE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "maintain/value_dict.h"

namespace dsm {

// Process-wide counters for the compact data plane. Plain atomics (not
// obs instruments) that benches and regression tests read directly; the
// engine mirrors them into the metrics registry.
struct TupleStoreStats {
  std::atomic<uint64_t> probes{0};
  std::atomic<uint64_t> rehashes{0};
  std::atomic<uint64_t> deep_copies{0};
  std::atomic<int64_t> resident_bytes{0};

  static TupleStoreStats& Global();
};

inline uint64_t HashTupleSlots(const Slot* slots, size_t arity) {
  return HashWords64(slots, arity);
}

class TupleStore {
 public:
  static constexpr uint32_t kNoRow = 0xffffffffu;

  explicit TupleStore(uint32_t arity);
  TupleStore(const TupleStore& other);
  TupleStore& operator=(const TupleStore& other);
  TupleStore(TupleStore&& other) noexcept;
  TupleStore& operator=(TupleStore&& other) noexcept;
  ~TupleStore();

  uint32_t arity() const { return arity_; }
  // Row ids run [0, physical_rows); dead rows have count 0 and their ids
  // are recycled by later inserts.
  uint32_t physical_rows() const {
    return static_cast<uint32_t>(counts_.size());
  }
  size_t live_rows() const { return live_; }

  const Slot* row_slots(uint32_t row) const {
    return slots_.data() + static_cast<size_t>(row) * arity_;
  }
  uint64_t row_hash(uint32_t row) const { return hashes_[row]; }
  int64_t row_count(uint32_t row) const { return counts_[row]; }

  // Adds `delta` to the tuple's multiplicity (erasing at zero). `hash`
  // must be HashTupleSlots(slots, arity); callers that copy or merge rows
  // pass the stored hash through instead of recomputing it. Returns the
  // row id the tuple occupies — or occupied, if this Apply erased it.
  uint32_t Apply(const Slot* slots, uint64_t hash, int64_t delta);

  uint32_t FindRow(const Slot* slots, uint64_t hash) const;
  int64_t Count(const Slot* slots, uint64_t hash) const {
    const uint32_t row = FindRow(slots, hash);
    return row == kNoRow ? 0 : counts_[row];
  }

  template <typename F>  // F(uint32_t row)
  void ForEachLive(F&& f) const {
    const uint32_t n = physical_rows();
    for (uint32_t r = 0; r < n; ++r) {
      if (counts_[r] != 0) f(r);
    }
  }

  void Reserve(size_t rows);

  // Test hook (forced-collision regression): inserts through the normal
  // probe path but with a caller-chosen hash, so distinct tuples can be
  // driven into one probe chain. Lookups must then pass the same hash.
  uint32_t ApplyWithHashForTest(const Slot* slots, uint64_t hash,
                                int64_t delta) {
    return Apply(slots, hash, delta);
  }

 private:
  static constexpr uint32_t kEmpty = 0xffffffffu;
  static constexpr uint32_t kTombstone = 0xfffffffeu;

  void Rehash(size_t min_live);
  void SyncResidentBytes();
  size_t HeapBytes() const;

  uint32_t arity_;
  std::vector<Slot> slots_;       // row-major, physical_rows * arity
  std::vector<uint64_t> hashes_;  // per row, never recomputed
  std::vector<int64_t> counts_;   // 0 = dead row (id recyclable)
  std::vector<uint32_t> free_;    // dead row ids for reuse
  std::vector<uint32_t> table_;   // open addressing: row id / empty / tomb
  size_t mask_ = 0;               // table_.size() - 1
  size_t live_ = 0;
  size_t tombstones_ = 0;

  // Heap bytes last reported into the global resident-bytes gauge. Only
  // mutating entry points touch accounting; const lookups stay write-free.
  int64_t reported_bytes_ = 0;
};

// Pre-hashed equi-join index: groups of (row id, count) entries keyed by a
// projection of the row onto `key_arity` slots. The key's slots and hash
// are stored per group; probing compares hashes then slots, exactly like
// TupleStore. Groups whose last entry leaves become tombstones and their
// storage is recycled.
class SlotKeyIndex {
 public:
  static constexpr uint32_t kNoGroup = 0xffffffffu;

  struct Entry {
    uint32_t row;
    int64_t count;
  };

  explicit SlotKeyIndex(uint32_t key_arity);

  uint32_t key_arity() const { return key_arity_; }

  // nullptr when no live group carries this key.
  const std::vector<Entry>* Find(const Slot* key, uint64_t hash) const;

  // Adds `delta` to `row`'s entry under `key` (appending / erasing entries
  // as counts cross zero).
  void Patch(const Slot* key, uint64_t hash, uint32_t row, int64_t delta);

  size_t num_groups() const { return live_; }

 private:
  static constexpr uint32_t kEmpty = 0xffffffffu;
  static constexpr uint32_t kTombstone = 0xfffffffeu;

  uint32_t FindGroup(const Slot* key, uint64_t hash) const;
  void Rehash(size_t min_live);

  uint32_t key_arity_;
  std::vector<Slot> keys_;        // group-major, num groups * key_arity
  std::vector<uint64_t> hashes_;  // per group
  std::vector<std::vector<Entry>> entries_;  // empty = dead group
  std::vector<uint32_t> free_;
  std::vector<uint32_t> table_;
  size_t mask_ = 0;
  size_t live_ = 0;
  size_t tombstones_ = 0;
};

}  // namespace dsm

#endif  // DSM_MAINTAIN_TUPLE_STORE_H_
