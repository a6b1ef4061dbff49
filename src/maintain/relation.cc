#include "maintain/relation.h"

#include <algorithm>
#include <cassert>

namespace dsm {
namespace {

void GatherSlots(const Slot* row, const std::vector<int>& positions,
                 Slot* out) {
  for (size_t i = 0; i < positions.size(); ++i) {
    out[i] = row[static_cast<size_t>(positions[i])];
  }
}

}  // namespace

Relation::Relation(std::vector<std::string> column_names)
    : columns_(std::move(column_names)),
      store_(std::make_shared<TupleStore>(
          static_cast<uint32_t>(columns_.size()))) {}

Relation::Relation(std::vector<std::string> column_names, TupleStore rows)
    : columns_(std::move(column_names)),
      store_(std::make_shared<TupleStore>(std::move(rows))) {
  assert(store_->arity() == columns_.size() && "store arity != schema");
}

TupleStore* Relation::MutableStore() {
  // Copy-on-write: relations that merely returned the bag unchanged (no-op
  // filters, a join delta handed to its consumers) share one store; the
  // deep copy happens only when a sharer mutates.
  if (store_.use_count() > 1) {
    store_ = std::make_shared<TupleStore>(*store_);
  }
  return store_.get();
}

int Relation::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

void Relation::Apply(const Tuple& tuple, int64_t delta) {
  if (delta == 0) return;
  assert(tuple.size() == columns_.size() && "tuple arity != schema arity");
  Slot stack_buf[16];
  std::vector<Slot> heap_buf;
  Slot* slots = stack_buf;
  if (tuple.size() > 16) {
    heap_buf.resize(tuple.size());
    slots = heap_buf.data();
  }
  ValueDict& dict = ValueDict::Global();
  for (size_t i = 0; i < tuple.size(); ++i) slots[i] = dict.Encode(tuple[i]);
  ApplyEncoded(slots, HashTupleSlots(slots, tuple.size()), delta);
}

void Relation::ApplyEncoded(const Slot* slots, uint64_t hash,
                            int64_t delta) {
  if (delta == 0) return;
  const uint32_t row = MutableStore()->Apply(slots, hash, delta);
  if (!indexes_.empty()) PatchIndexesEncoded(slots, row, delta);
}

void Relation::ApplyAll(const Relation& src, int64_t sign) {
  assert(src.columns_ == columns_ && "ApplyAll requires matching schemas");
  // Same schema, same global hash function: the stored hashes transfer.
  const TupleStore& from = *src.store_;
  if (indexes_.empty()) {
    MutableStore()->MergeAll(from, sign);
    return;
  }
  std::vector<uint32_t> landed;
  MutableStore()->MergeAll(from, sign, &landed);
  for (uint32_t r = 0; r < landed.size(); ++r) {
    if (landed[r] == TupleStore::kNoRow) continue;  // a dead source row
    PatchIndexesEncoded(from.row_slots(r), landed[r],
                        sign * from.row_count(r));
  }
}

void Relation::ApplyRows(const TupleStore& src,
                         std::span<const uint32_t> rows) {
  assert(src.arity() == columns_.size() && "ApplyRows requires the schema");
  if (indexes_.empty()) {
    MutableStore()->MergeRows(src, rows, 1);
    return;
  }
  std::vector<uint32_t> landed;
  MutableStore()->MergeRows(src, rows, 1, &landed);
  for (size_t i = 0; i < rows.size(); ++i) {
    PatchIndexesEncoded(src.row_slots(rows[i]), landed[i],
                        src.row_count(rows[i]));
  }
}

void Relation::PatchIndexesEncoded(const Slot* slots, uint32_t row,
                                   int64_t delta) {
  Slot key_buf[16];
  std::vector<Slot> heap_buf;
  for (const auto& index : indexes_) {
    const size_t k = index->key_positions.size();
    Slot* key = key_buf;
    if (k > 16) {
      heap_buf.resize(k);
      key = heap_buf.data();
    }
    GatherSlots(slots, index->key_positions, key);
    index->slots.Patch(key, HashTupleSlots(key, k), row, delta);
  }
}

const Relation::JoinIndex* Relation::EnsureIndex(
    const std::vector<std::string>& key_columns) {
  if (const JoinIndex* existing = FindIndex(key_columns)) return existing;
  std::vector<int> positions;
  positions.reserve(key_columns.size());
  for (const std::string& name : key_columns) {
    const int pos = FindColumn(name);
    assert(pos >= 0 && "index key column not in schema");
    positions.push_back(pos);
  }
  auto index = std::make_unique<JoinIndex>(key_columns, std::move(positions));
  BuildIndex(index.get());
  indexes_.push_back(std::move(index));
  return indexes_.back().get();
}

void Relation::BuildIndex(JoinIndex* index) const {
  const size_t k = index->key_positions.size();
  std::vector<Slot> key(k);
  const TupleStore& st = *store_;
  st.ForEachLive([&](uint32_t r) {
    GatherSlots(st.row_slots(r), index->key_positions, key.data());
    index->slots.Patch(key.data(), HashTupleSlots(key.data(), k), r,
                       st.row_count(r));
  });
}

const Relation::JoinIndex* Relation::FindIndex(
    const std::vector<std::string>& key_columns) const {
  for (const auto& index : indexes_) {
    if (index->key_columns == key_columns) return index.get();
  }
  return nullptr;
}

int64_t Relation::Count(const Tuple& tuple) const {
  if (tuple.size() != columns_.size()) return 0;
  Slot stack_buf[16];
  std::vector<Slot> heap_buf;
  Slot* slots = stack_buf;
  if (tuple.size() > 16) {
    heap_buf.resize(tuple.size());
    slots = heap_buf.data();
  }
  const ValueDict& dict = ValueDict::Global();
  for (size_t i = 0; i < tuple.size(); ++i) {
    // Lookup only: probing for a never-interned value cannot match any row
    // and must not grow the dictionary.
    if (!dict.Find(tuple[i], &slots[i])) return 0;
  }
  return store_->Count(slots, HashTupleSlots(slots, tuple.size()));
}

int64_t Relation::TotalSize() const {
  int64_t total = 0;
  store_->ForEachLive([&](uint32_t r) { total += store_->row_count(r); });
  return total;
}

bool Relation::BagEquals(const Relation& other) const {
  if (DistinctSize() != other.DistinctSize()) return false;
  if (store_ == other.store_) return true;  // shared bag
  if (store_->arity() != other.store_->arity()) return DistinctSize() == 0;
  const TupleStore& st = *store_;
  const TupleStore& ot = *other.store_;
  bool equal = true;
  st.ForEachLive([&](uint32_t r) {
    if (!equal) return;
    if (ot.Count(st.row_slots(r), st.row_hash(r)) != st.row_count(r)) {
      equal = false;
    }
  });
  return equal;
}

Relation Relation::Filter(const std::string& column, CompareOp op,
                          double constant) const {
  const int idx = FindColumn(column);
  if (idx < 0) {
    // Unknown column: the bag is returned unchanged. The copy shares the
    // row store — no rows are touched.
    return *this;
  }
  // Columnar kernel: pass 1 scans one column of slots and collects
  // surviving row ids; pass 2 appends the flat rows. The schema is
  // unchanged, so every surviving row keeps its stored hash, and the rows
  // of a bag are distinct, so none needs a probe.
  const TupleStore& st = *store_;
  std::vector<uint32_t> keep;
  keep.reserve(st.live_rows());
  st.ForEachLive([&](uint32_t r) {
    if (SlotSatisfies(st.row_slots(r)[idx], op, constant)) {
      keep.push_back(r);
    }
  });
  TupleStore out(st.arity());
  out.Reserve(keep.size());
  for (const uint32_t r : keep) {
    out.Append(st.row_slots(r), st.row_hash(r), st.row_count(r));
  }
  return Relation(columns_, std::move(out));
}

JoinShape PrepareJoin(const std::vector<std::string>& a_columns,
                      const std::vector<std::string>& b_columns,
                      const std::vector<std::string>* out_columns) {
  JoinShape shape;
  for (size_t i = 0; i < b_columns.size(); ++i) {
    const auto in_a =
        std::find(a_columns.begin(), a_columns.end(), b_columns[i]);
    if (in_a != a_columns.end()) {
      shape.shared_a.push_back(static_cast<int>(in_a - a_columns.begin()));
      shape.shared_b.push_back(static_cast<int>(i));
    } else {
      shape.b_extra.push_back(static_cast<int>(i));
    }
  }
  shape.out_columns = a_columns;
  for (const int i : shape.b_extra) {
    shape.out_columns.push_back(b_columns[static_cast<size_t>(i)]);
  }
  // Where each column of that natural order lands in the output.
  std::vector<int> out(shape.out_columns.size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = static_cast<int>(i);
  if (out_columns != nullptr) {
    assert(out_columns->size() == out.size() &&
           "join output order is not a permutation");
    for (size_t i = 0; i < out.size(); ++i) {
      const auto at = std::find(out_columns->begin(), out_columns->end(),
                                shape.out_columns[i]);
      assert(at != out_columns->end() &&
             "join output order is not a permutation");
      out[i] = static_cast<int>(at - out_columns->begin());
    }
    shape.out_columns = *out_columns;
  }
  const auto a_end = out.begin() + static_cast<long>(a_columns.size());
  shape.a_out.assign(out.begin(), a_end);
  shape.b_extra_out.assign(a_end, out.end());
  return shape;
}

std::vector<std::string> SharedJoinColumns(
    const std::vector<std::string>& a_columns, const Relation& b) {
  std::vector<std::string> shared;
  for (const std::string& name : b.columns()) {
    if (std::find(a_columns.begin(), a_columns.end(), name) !=
        a_columns.end()) {
      shared.push_back(name);
    }
  }
  return shared;
}

namespace {

// Probe loop: keys are pre-hashed slot projections, output rows are flat
// slot copies, each slot written straight to its position in the shape's
// output order. `b_index` is either a transient index built here or a
// persistent one patched by b's Apply. Work counts probed pairs — which
// tuple pairs meet is a property of the bags. An output row holds its
// a-row and its b-row whole, and a and b each hold distinct rows, so the
// output rows are distinct: each is appended, with no probe of the result.
Relation ProbeJoin(const Relation& a, const Relation& b,
                   const JoinShape& shape, const SlotKeyIndex& b_index,
                   uint64_t* work) {
  const TupleStore& sa = a.store();
  const TupleStore& sb = b.store();
  const size_t key_arity = shape.shared_a.size();
  const size_t out_arity = shape.out_columns.size();

  TupleStore out(static_cast<uint32_t>(out_arity));
  std::vector<Slot> key(key_arity);
  std::vector<Slot> joined(out_arity);
  uint64_t probes = 0;
  sa.ForEachLive([&](uint32_t ra) {
    const Slot* arow = sa.row_slots(ra);
    GatherSlots(arow, shape.shared_a, key.data());
    ++probes;
    const auto* bucket =
        b_index.Find(key.data(), HashTupleSlots(key.data(), key_arity));
    if (bucket == nullptr) return;
    const int64_t ca = sa.row_count(ra);
    for (size_t i = 0; i < shape.a_out.size(); ++i) {
      joined[static_cast<size_t>(shape.a_out[i])] = arow[i];
    }
    for (const SlotKeyIndex::Entry& e : *bucket) {
      if (work != nullptr) ++*work;
      const Slot* brow = sb.row_slots(e.row);
      for (size_t j = 0; j < shape.b_extra.size(); ++j) {
        joined[static_cast<size_t>(shape.b_extra_out[j])] =
            brow[static_cast<size_t>(shape.b_extra[j])];
      }
      out.Append(joined.data(), HashTupleSlots(joined.data(), out_arity),
                 ca * e.count);
    }
  });
  TupleStoreStats::Global().probes.fetch_add(probes,
                                             std::memory_order_relaxed);
  return Relation(shape.out_columns, std::move(out));
}

}  // namespace

Relation NaturalJoin(const Relation& a, const Relation& b, uint64_t* work,
                     const std::vector<std::string>* out_columns) {
  const JoinShape shape = PrepareJoin(a.columns(), b.columns(), out_columns);
  // Transient pre-hashed index on b's shared-column projection.
  const TupleStore& sb = b.store();
  const size_t key_arity = shape.shared_b.size();
  SlotKeyIndex index(static_cast<uint32_t>(key_arity));
  std::vector<Slot> key(key_arity);
  sb.ForEachLive([&](uint32_t rb) {
    GatherSlots(sb.row_slots(rb), shape.shared_b, key.data());
    index.Patch(key.data(), HashTupleSlots(key.data(), key_arity), rb,
                sb.row_count(rb));
  });
  return ProbeJoin(a, b, shape, index, work);
}

Relation NaturalJoin(const Relation& a, const Relation& b,
                     const JoinShape& shape,
                     const Relation::JoinIndex& b_index, uint64_t* work) {
  // The shape was prepared for these schemas, and the index is keyed on
  // exactly its shared columns.
  assert(shape.a_out.size() == a.columns().size() &&
         "join shape prepared for another left schema");
  assert(shape.shared_b.size() + shape.b_extra.size() ==
             b.columns().size() &&
         "join shape prepared for another right schema");
  assert(shape.shared_b == b_index.key_positions &&
         "join index key does not match the shared columns");
  return ProbeJoin(a, b, shape, b_index.slots, work);
}

}  // namespace dsm
