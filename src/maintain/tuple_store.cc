#include "maintain/tuple_store.h"

#include <cassert>
#include <cstring>
#include <utility>

namespace dsm {
namespace {

constexpr size_t kMinTable = 16;

size_t TableSizeFor(size_t live) {
  size_t size = kMinTable;
  while (size < live * 2) size <<= 1;
  return size;
}

bool SlotsEqual(const Slot* a, const Slot* b, uint32_t arity) {
  return arity == 0 ||
         std::memcmp(a, b, static_cast<size_t>(arity) * sizeof(Slot)) == 0;
}

}  // namespace

TupleStoreStats& TupleStoreStats::Global() {
  static TupleStoreStats* stats = new TupleStoreStats();  // never destroyed
  return *stats;
}

TupleStore::TupleStore(uint32_t arity)
    : arity_(arity), stride_(kHeader + arity) {}

TupleStore::TupleStore(const TupleStore& other)
    : arity_(other.arity_),
      stride_(other.stride_),
      records_(other.records_),
      rows_(other.rows_),
      free_(other.free_),
      live_(other.live_),
      table_(other.table_),
      mask_(other.mask_),
      tombstones_(other.tombstones_),
      table_stale_(other.table_stale_) {
  TupleStoreStats::Global().deep_copies.fetch_add(1,
                                                  std::memory_order_relaxed);
  SyncResidentBytes();
}

TupleStore& TupleStore::operator=(const TupleStore& other) {
  if (this == &other) return *this;
  arity_ = other.arity_;
  stride_ = other.stride_;
  records_ = other.records_;
  rows_ = other.rows_;
  free_ = other.free_;
  live_ = other.live_;
  table_ = other.table_;
  mask_ = other.mask_;
  tombstones_ = other.tombstones_;
  table_stale_ = other.table_stale_;
  TupleStoreStats::Global().deep_copies.fetch_add(1,
                                                  std::memory_order_relaxed);
  SyncResidentBytes();
  return *this;
}

TupleStore::TupleStore(TupleStore&& other) noexcept
    : arity_(other.arity_),
      stride_(other.stride_),
      records_(std::move(other.records_)),
      rows_(other.rows_),
      free_(std::move(other.free_)),
      live_(other.live_),
      table_(std::move(other.table_)),
      mask_(other.mask_),
      tombstones_(other.tombstones_),
      table_stale_(other.table_stale_),
      reported_bytes_(other.reported_bytes_) {
  other.rows_ = 0;
  other.live_ = 0;
  other.mask_ = 0;
  other.tombstones_ = 0;
  other.table_stale_ = false;
  other.reported_bytes_ = 0;
}

TupleStore& TupleStore::operator=(TupleStore&& other) noexcept {
  if (this == &other) return *this;
  TupleStoreStats::Global().resident_bytes.fetch_sub(
      reported_bytes_, std::memory_order_relaxed);
  arity_ = other.arity_;
  stride_ = other.stride_;
  records_ = std::move(other.records_);
  rows_ = other.rows_;
  free_ = std::move(other.free_);
  live_ = other.live_;
  table_ = std::move(other.table_);
  mask_ = other.mask_;
  tombstones_ = other.tombstones_;
  table_stale_ = other.table_stale_;
  reported_bytes_ = other.reported_bytes_;
  other.rows_ = 0;
  other.live_ = 0;
  other.mask_ = 0;
  other.tombstones_ = 0;
  other.table_stale_ = false;
  other.reported_bytes_ = 0;
  return *this;
}

TupleStore::~TupleStore() {
  TupleStoreStats::Global().resident_bytes.fetch_sub(
      reported_bytes_, std::memory_order_relaxed);
}

size_t TupleStore::HeapBytes() const {
  return records_.capacity() * sizeof(uint64_t) +
         free_.capacity() * sizeof(uint32_t) +
         table_.capacity() * sizeof(uint32_t);
}

void TupleStore::SyncResidentBytes() const {
  const auto bytes = static_cast<int64_t>(HeapBytes());
  if (bytes == reported_bytes_) return;
  TupleStoreStats::Global().resident_bytes.fetch_add(
      bytes - reported_bytes_, std::memory_order_relaxed);
  reported_bytes_ = bytes;
}

void TupleStore::Reserve(size_t rows) {
  records_.reserve(rows * stride_);
  SyncResidentBytes();
}

bool TupleStore::SameRow(uint32_t row, const Slot* slots,
                         uint64_t hash) const {
  return row_hash(row) == hash && SlotsEqual(row_slots(row), slots, arity_);
}

void TupleStore::Rehash(size_t min_live) const {
  const size_t size = TableSizeFor(min_live);
  table_.assign(size, kEmpty);
  mask_ = size - 1;
  tombstones_ = 0;
  table_stale_ = false;
  ForEachLive([&](uint32_t row) {
    // Stored hash: the whole point — a rehash never re-reads slot bytes
    // (except to check, with asserts on, that appends kept rows distinct).
    const uint64_t hash = row_hash(row);
    size_t i = hash & mask_;
    while (table_[i] != kEmpty) {
      assert(!SameRow(table_[i], row_slots(row), hash) &&
             "two live rows hold one tuple: a row was appended twice");
      i = (i + 1) & mask_;
    }
    table_[i] = row;
  });
  TupleStoreStats::Global().rehashes.fetch_add(1, std::memory_order_relaxed);
  SyncResidentBytes();
}

uint32_t TupleStore::FindRow(const Slot* slots, uint64_t hash) const {
  if (live_ == 0) return kNoRow;
  EnsureTable();
  size_t i = hash & mask_;
  while (true) {
    const uint32_t entry = table_[i];
    if (entry == kEmpty) return kNoRow;
    if (entry != kTombstone && SameRow(entry, slots, hash)) return entry;
    i = (i + 1) & mask_;
  }
}

uint32_t TupleStore::AppendRecord(const Slot* slots, uint64_t hash,
                                  int64_t count) {
  const size_t capacity = records_.capacity();
  records_.resize(records_.size() + stride_);
  uint64_t* rec = record(rows_);
  rec[0] = hash;
  rec[1] = static_cast<uint64_t>(count);
  if (arity_ > 0) {
    std::memcpy(rec + kHeader, slots,
                static_cast<size_t>(arity_) * sizeof(Slot));
  }
  if (records_.capacity() != capacity) SyncResidentBytes();
  return rows_++;
}

void TupleStore::Append(const Slot* slots, uint64_t hash, int64_t count) {
  assert(count != 0 && "an appended row is live");
  AppendRecord(slots, hash, count);
  ++live_;
  table_stale_ = true;
}

uint32_t TupleStore::Apply(const Slot* slots, uint64_t hash, int64_t delta) {
  if (delta == 0) return FindRow(slots, hash);
  // Counted at once (not batched) so the exported counter is exact at any
  // serial point — the run-report goldens depend on it.
  TupleStoreStats::Global().probes.fetch_add(1, std::memory_order_relaxed);
  return Upsert(slots, hash, delta);
}

uint32_t TupleStore::Upsert(const Slot* slots, uint64_t hash,
                            int64_t delta) {
  if (table_stale_ || table_.empty() ||
      (live_ + tombstones_ + 1) * 4 > table_.size() * 3) {
    Rehash(live_ + 1);
  }
  size_t i = hash & mask_;
  size_t insert_at = static_cast<size_t>(-1);
  while (true) {
    const uint32_t entry = table_[i];
    if (entry == kEmpty) {
      if (insert_at == static_cast<size_t>(-1)) insert_at = i;
      break;
    }
    if (entry == kTombstone) {
      if (insert_at == static_cast<size_t>(-1)) insert_at = i;
    } else if (SameRow(entry, slots, hash)) {
      uint64_t& count = record(entry)[1];
      count += static_cast<uint64_t>(delta);
      if (count == 0) {
        free_.push_back(entry);
        table_[i] = kTombstone;
        ++tombstones_;
        --live_;
      }
      return entry;
    }
    i = (i + 1) & mask_;
  }

  uint32_t row;
  if (!free_.empty()) {
    row = free_.back();
    free_.pop_back();
    uint64_t* rec = record(row);
    rec[0] = hash;
    rec[1] = static_cast<uint64_t>(delta);
    if (arity_ > 0) {
      std::memcpy(rec + kHeader, slots,
                  static_cast<size_t>(arity_) * sizeof(Slot));
    }
  } else {
    row = AppendRecord(slots, hash, delta);
  }
  if (table_[insert_at] == kTombstone) --tombstones_;
  table_[insert_at] = row;
  ++live_;
  return row;
}

template <typename RowAt>
void TupleStore::MergeBatch(const TupleStore& src, size_t n, RowAt row_at,
                            int64_t sign, std::vector<uint32_t>* landed) {
  assert(&src != this && src.arity_ == arity_);
  if (landed != nullptr) landed->assign(n, kNoRow);
  if (n == 0) return;
  if (table_stale_ || table_.empty()) Rehash(live_ + 1);
  // A two-stage software pipeline: kAhead rows before its probe, a row's
  // table entry is fetched; one stage later the entry is read and the
  // record it names is fetched. The probe then finds both in cache. A
  // rehash mid-batch only wastes the prefetches in flight.
  constexpr size_t kAhead = 8;
  const auto entry_of = [&](size_t i) {
    return &table_[src.row_hash(row_at(i)) & mask_];
  };
  uint64_t probes = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i + 2 * kAhead < n) __builtin_prefetch(entry_of(i + 2 * kAhead));
    if (i + kAhead < n) {
      const uint32_t entry = *entry_of(i + kAhead);
      if (entry < kTombstone) __builtin_prefetch(record(entry));
    }
    const uint32_t r = row_at(i);
    const int64_t count = src.row_count(r);
    if (count == 0) continue;  // a dead row of MergeAll's source
    ++probes;
    const uint32_t at = Upsert(src.row_slots(r), src.row_hash(r), sign * count);
    if (landed != nullptr) (*landed)[i] = at;
  }
  // One flush per batch, like a join's index probes.
  TupleStoreStats::Global().probes.fetch_add(probes,
                                             std::memory_order_relaxed);
}

void TupleStore::MergeAll(const TupleStore& src, int64_t sign,
                          std::vector<uint32_t>* landed) {
  MergeBatch(src, src.physical_rows(),
             [](size_t i) { return static_cast<uint32_t>(i); }, sign, landed);
}

void TupleStore::MergeRows(const TupleStore& src,
                           std::span<const uint32_t> rows, int64_t sign,
                           std::vector<uint32_t>* landed) {
  MergeBatch(src, rows.size(), [rows](size_t i) { return rows[i]; }, sign,
             landed);
}

// --- SlotKeyIndex -----------------------------------------------------------

SlotKeyIndex::SlotKeyIndex(uint32_t key_arity) : key_arity_(key_arity) {}

uint32_t SlotKeyIndex::FindGroup(const Slot* key, uint64_t hash) const {
  if (live_ == 0 || table_.empty()) return kNoGroup;
  size_t i = hash & mask_;
  while (true) {
    const uint32_t entry = table_[i];
    if (entry == kEmpty) return kNoGroup;
    if (entry != kTombstone && hashes_[entry] == hash &&
        SlotsEqual(keys_.data() + static_cast<size_t>(entry) * key_arity_,
                   key, key_arity_)) {
      return entry;
    }
    i = (i + 1) & mask_;
  }
}

const std::vector<SlotKeyIndex::Entry>* SlotKeyIndex::Find(
    const Slot* key, uint64_t hash) const {
  const uint32_t group = FindGroup(key, hash);
  return group == kNoGroup ? nullptr : &entries_[group];
}

void SlotKeyIndex::Rehash(size_t min_live) {
  const size_t size = TableSizeFor(min_live);
  table_.assign(size, kEmpty);
  mask_ = size - 1;
  tombstones_ = 0;
  const auto n = static_cast<uint32_t>(entries_.size());
  for (uint32_t group = 0; group < n; ++group) {
    if (entries_[group].empty()) continue;
    size_t i = hashes_[group] & mask_;
    while (table_[i] != kEmpty) i = (i + 1) & mask_;
    table_[i] = group;
  }
  TupleStoreStats::Global().rehashes.fetch_add(1, std::memory_order_relaxed);
}

void SlotKeyIndex::Patch(const Slot* key, uint64_t hash, uint32_t row,
                         int64_t delta) {
  if (delta == 0) return;
  if (table_.empty() || (live_ + tombstones_ + 1) * 4 > table_.size() * 3) {
    Rehash(live_ + 1);
  }
  size_t i = hash & mask_;
  size_t insert_at = static_cast<size_t>(-1);
  uint32_t group = kNoGroup;
  size_t group_pos = 0;
  while (true) {
    const uint32_t entry = table_[i];
    if (entry == kEmpty) {
      if (insert_at == static_cast<size_t>(-1)) insert_at = i;
      break;
    }
    if (entry == kTombstone) {
      if (insert_at == static_cast<size_t>(-1)) insert_at = i;
    } else if (hashes_[entry] == hash &&
               SlotsEqual(keys_.data() +
                              static_cast<size_t>(entry) * key_arity_,
                          key, key_arity_)) {
      group = entry;
      group_pos = i;
      break;
    }
    i = (i + 1) & mask_;
  }

  if (group == kNoGroup) {
    if (!free_.empty()) {
      group = free_.back();
      free_.pop_back();
      if (key_arity_ > 0) {
        std::memcpy(keys_.data() + static_cast<size_t>(group) * key_arity_,
                    key, static_cast<size_t>(key_arity_) * sizeof(Slot));
      }
      hashes_[group] = hash;
    } else {
      group = static_cast<uint32_t>(entries_.size());
      if (key_arity_ > 0) keys_.insert(keys_.end(), key, key + key_arity_);
      hashes_.push_back(hash);
      entries_.emplace_back();
    }
    if (table_[insert_at] == kTombstone) --tombstones_;
    table_[insert_at] = group;
    ++live_;
    entries_[group].push_back(Entry{row, delta});
    return;
  }

  std::vector<Entry>& bucket = entries_[group];
  for (size_t e = 0; e < bucket.size(); ++e) {
    if (bucket[e].row != row) continue;
    bucket[e].count += delta;
    if (bucket[e].count == 0) {
      bucket.erase(bucket.begin() + static_cast<std::ptrdiff_t>(e));
      if (bucket.empty()) {
        free_.push_back(group);
        table_[group_pos] = kTombstone;
        ++tombstones_;
        --live_;
      }
    }
    return;
  }
  bucket.push_back(Entry{row, delta});
}

}  // namespace dsm
