// TupleStore: the compact row store behind every Relation.
//
// A row is one record of `2 + arity` 64-bit words in one flat array:
// [hash, count, slot 0, ..., slot arity-1] (slots: maintain/value_dict.h).
// The hash is computed once, when the row first arrives, and travels with
// the row; the count is the signed multiplicity, 0 for a dead row. The
// store's own hash table is open addressing over row ids: a probe reads one
// table entry, then the one record it names (hash, then slots by memcmp) —
// no per-probe allocation, no string compares, and a rehash only reshuffles
// 4-byte row ids using the stored hashes.
//
// Rows reach a store two ways. Apply and the batched MergeAll / MergeRows
// probe the table and add to a row's count (erasing it at zero). Append adds a row its caller knows
// is absent, with no probe and no table work: a join's output rows are
// distinct (each holds its a-row and its b-row whole, and both inputs are
// bags of distinct rows), so ProbeJoin appends them. The table is then
// built from the stored hashes only when something first looks a row up;
// a join delta that is only scanned and merged elsewhere never has one.
//
// SlotKeyIndex is the matching pre-hashed equi-join index: projected key
// slots -> (row id, count) entries, patched in place by Relation::Apply.
//
// Both tables feed the process-wide TupleStoreStats (probes, rehashes,
// deep copies, resident bytes), which the maintenance engine exports as
// dsm.maintain.* metrics. A probe is counted when its call returns, so
// the exported counters are deterministic for a fixed seed: Apply counts
// its one probe, MergeAll and MergeRows their batch at once, and join kernels flush
// their index probes once per join (maintain/relation.cc). Appends probe
// nothing and count nothing.

#ifndef DSM_MAINTAIN_TUPLE_STORE_H_
#define DSM_MAINTAIN_TUPLE_STORE_H_

#include <atomic>
#include <cstdint>
#include <span>
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
  uint32_t physical_rows() const { return rows_; }
  size_t live_rows() const { return live_; }

  const Slot* row_slots(uint32_t row) const { return record(row) + kHeader; }
  uint64_t row_hash(uint32_t row) const { return record(row)[0]; }
  int64_t row_count(uint32_t row) const {
    return static_cast<int64_t>(record(row)[1]);
  }

  // Adds `delta` to the tuple's multiplicity (erasing at zero). `hash`
  // must be HashTupleSlots(slots, arity); callers that copy or merge rows
  // pass the stored hash through instead of recomputing it. Returns the
  // row id the tuple occupies — or occupied, if this Apply erased it.
  uint32_t Apply(const Slot* slots, uint64_t hash, int64_t delta);

  // Adds a row with a nonzero `count` that the store does not hold: no
  // probe. The caller guarantees the row is absent; the next lookup builds
  // the table, and asserts (in assert-enabled builds) that no two live
  // rows are equal.
  void Append(const Slot* slots, uint64_t hash, int64_t count);

  // The batched Apply: merges every live row of `src` (same arity), each
  // with its stored hash and its count times `sign`, in one loop that
  // prefetches the table entry and then the record of rows a few places
  // ahead. When `landed` is not null, it receives one row id per physical
  // row of `src`: the id that row occupies here, as Apply would return it,
  // or kNoRow for a dead source row.
  void MergeAll(const TupleStore& src, int64_t sign,
                std::vector<uint32_t>* landed = nullptr);
  // The same loop over the live rows `rows` of `src`; landed[i] is the id
  // rows[i] occupies here.
  void MergeRows(const TupleStore& src, std::span<const uint32_t> rows,
                 int64_t sign, std::vector<uint32_t>* landed = nullptr);

  uint32_t FindRow(const Slot* slots, uint64_t hash) const;
  int64_t Count(const Slot* slots, uint64_t hash) const {
    const uint32_t row = FindRow(slots, hash);
    return row == kNoRow ? 0 : row_count(row);
  }

  template <typename F>  // F(uint32_t row)
  void ForEachLive(F&& f) const {
    const uint32_t n = physical_rows();
    for (uint32_t r = 0; r < n; ++r) {
      if (record(r)[1] != 0) f(r);
    }
  }

  // Room for `rows` records; the table grows as rows are looked up.
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
  static constexpr size_t kHeader = 2;  // hash, count

  const uint64_t* record(uint32_t row) const {
    return records_.data() + static_cast<size_t>(row) * stride_;
  }
  uint64_t* record(uint32_t row) {
    return records_.data() + static_cast<size_t>(row) * stride_;
  }
  bool SameRow(uint32_t row, const Slot* slots, uint64_t hash) const;
  // Writes a new record at the end; returns its row id.
  uint32_t AppendRecord(const Slot* slots, uint64_t hash, int64_t count);

  // The loop behind MergeAll and MergeRows: row_at(i) is the i-th source
  // row id.
  template <typename RowAt>
  void MergeBatch(const TupleStore& src, size_t n, RowAt row_at,
                  int64_t sign, std::vector<uint32_t>* landed);
  // Makes room for one more row (building a table the appends left out)
  // and adds `delta` to the row's count; no probe accounting.
  uint32_t Upsert(const Slot* slots, uint64_t hash, int64_t delta);
  // Builds the table if appends left it out of date.
  void EnsureTable() const {
    if (table_stale_) Rehash(live_);
  }
  void Rehash(size_t min_live) const;
  void SyncResidentBytes() const;
  size_t HeapBytes() const;

  uint32_t arity_;
  size_t stride_;                  // kHeader + arity_ words per record
  std::vector<uint64_t> records_;  // physical_rows * stride_
  uint32_t rows_ = 0;
  std::vector<uint32_t> free_;     // dead row ids for reuse
  size_t live_ = 0;

  // The table, built lazily: a const lookup on a store that rows were
  // appended to builds it from the stored hashes, so these members change
  // under const access. They are derived state — the rows alone define the
  // bag — and a store is not shared across threads (maintenance is
  // serial), so the first lookup is never concurrent with another.
  mutable std::vector<uint32_t> table_;  // row id / empty / tombstone
  mutable size_t mask_ = 0;              // table_.size() - 1
  mutable size_t tombstones_ = 0;
  mutable bool table_stale_ = false;  // some live row is not in table_
  // Heap bytes last reported into the global resident-bytes gauge; a lazy
  // table build reports its table's bytes too.
  mutable int64_t reported_bytes_ = 0;
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
