// Relation: a named-column bag of tuples with signed multiplicities — the
// representation used by the incremental (counting-algorithm) view
// maintenance engine. Negative counts occur only transiently inside delta
// relations; materialized views and base tables stay non-negative.
//
// Rows live in a compact TupleStore (DESIGN.md §12): every Value is a
// tagged 8-byte slot (maintain/value_dict.h), and a row is one flat record
// of its hash, its count and its slots, found through an open-addressing
// table over the stored hashes. Copies share the store (copy-on-write), so
// returning a relation "unfiltered" or handing one join delta to many
// consumers costs one shared_ptr. Merges move rows with their stored
// hashes through one batched loop (TupleStore::MergeAll / MergeRows).
// Filter and joins append their rows, which are distinct by construction,
// without probing; such a relation's table is built on its first lookup,
// and a join delta that is only routed into views never builds one. A
// join writes its rows straight into the column order its caller asks
// for, so no relation needs a second pass to reorder its columns, and a
// caller that repeats a join step prepares its column bookkeeping
// (JoinShape) once.
//
// A relation can carry persistent equi-join indexes (EnsureIndex): each
// maps the projection of a row onto a fixed column subset to the rows
// carrying that key, with multiplicities. Indexes are patched in place by
// every Apply() and merge, so a long-lived operand (a base table) pays the
// hash build once instead of once per join. Copies drop indexes (a copy is
// a fresh operand); moves keep them.

#ifndef DSM_MAINTAIN_RELATION_H_
#define DSM_MAINTAIN_RELATION_H_

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "expr/predicate.h"
#include "maintain/tuple_store.h"
#include "maintain/value.h"
#include "maintain/value_dict.h"

namespace dsm {

class Relation {
 public:
  // A persistent hash index on the projection of each row onto
  // `key_columns`: a SlotKeyIndex of (row id, count) entries keyed by
  // pre-hashed key slots. Row ids stay valid because an index entry exists
  // exactly while its row is live in the store. Empty `key_columns` is
  // allowed: every row lands in one bucket (the cross-product case).
  struct JoinIndex {
    JoinIndex(std::vector<std::string> columns, std::vector<int> positions)
        : key_columns(std::move(columns)),
          key_positions(std::move(positions)),
          slots(static_cast<uint32_t>(key_positions.size())) {}

    std::vector<std::string> key_columns;  // names, in b-schema order
    std::vector<int> key_positions;        // same, as column positions
    SlotKeyIndex slots;
  };

  Relation() : Relation(std::vector<std::string>{}) {}
  explicit Relation(std::vector<std::string> column_names);
  // Adopts `rows` (of arity column_names.size()) as the row store.
  Relation(std::vector<std::string> column_names, TupleStore rows);

  // Copies carry rows but not indexes (consumers index what they need);
  // moves carry both. A copy shares the row store copy-on-write — the deep
  // copy happens only if one side later mutates.
  Relation(const Relation& other)
      : columns_(other.columns_), store_(other.store_) {}
  Relation& operator=(const Relation& other) {
    if (this != &other) {
      columns_ = other.columns_;
      store_ = other.store_;
      indexes_.clear();
    }
    return *this;
  }
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  const std::vector<std::string>& columns() const { return columns_; }
  int FindColumn(const std::string& name) const;

  // Adds `delta` to the tuple's multiplicity (entries at zero are erased).
  // Every persistent index is patched to match. The tuple must have one
  // value per column; callers taking outside input validate first.
  void Apply(const Tuple& tuple, int64_t delta);

  // 0 for tuples not in the bag, including tuples of the wrong arity.
  int64_t Count(const Tuple& tuple) const;
  size_t DistinctSize() const { return store_->live_rows(); }
  // Σ multiplicities (meaningful for non-negative relations).
  int64_t TotalSize() const;

  // Calls f(const Tuple&, int64_t count) for every distinct row. Each row
  // is decoded through the dictionary — fine for tests and reporting; hot
  // paths stay on slots.
  template <typename F>
  void ForEachRow(F&& f) const {
    const TupleStore& st = *store_;
    const ValueDict& dict = ValueDict::Global();
    const uint32_t arity = st.arity();
    st.ForEachLive([&](uint32_t r) {
      Tuple tuple;
      tuple.reserve(arity);
      const Slot* slots = st.row_slots(r);
      for (uint32_t c = 0; c < arity; ++c) {
        tuple.push_back(dict.Decode(slots[c]));
      }
      f(tuple, st.row_count(r));
    });
  }

  // True when the two relations hold the same tuple multiset.
  bool BagEquals(const Relation& other) const;

  // Returns the persistent index keyed on `key_columns` (each name must be
  // in the schema), building it on first request. The pointer stays valid
  // and current — Apply() patches it — for the relation's lifetime.
  const JoinIndex* EnsureIndex(const std::vector<std::string>& key_columns);
  // nullptr when no index on exactly `key_columns` exists yet.
  const JoinIndex* FindIndex(
      const std::vector<std::string>& key_columns) const;
  size_t num_indexes() const { return indexes_.size(); }

  // Tuples satisfying `column op constant`; schema unchanged. Columns
  // absent from the schema leave the relation unfiltered — that path shares
  // the row store instead of deep-copying it. The predicate runs as a
  // columnar kernel: one pass over the column's slots collects surviving
  // row ids, a second pass appends those rows with their stored hashes
  // (never recomputed; a subset of distinct rows is distinct).
  Relation Filter(const std::string& column, CompareOp op,
                  double constant) const;

  // --- hot-path entry points on encoded slots -------------------------------

  // The row store.
  const TupleStore& store() const { return *store_; }

  // Merges every row of `src` (same schema, in this relation's column
  // order) into this relation, its count times `sign` (-1 takes back an
  // earlier merge of `src`), in one batched loop. The stored row hashes
  // transfer directly — the merge never rehashes a tuple. Persistent
  // indexes are patched to match.
  void ApplyAll(const Relation& src, int64_t sign = 1);
  // The same merge for the live rows `rows` of `src`, a store in this
  // relation's column order (a routed selection of a join delta).
  void ApplyRows(const TupleStore& src, std::span<const uint32_t> rows);

 private:
  TupleStore* MutableStore();
  // Apply on already-encoded slots with a precomputed hash
  // (HashTupleSlots); patches persistent indexes like Apply.
  void ApplyEncoded(const Slot* slots, uint64_t hash, int64_t delta);
  void PatchIndexesEncoded(const Slot* slots, uint32_t row, int64_t delta);
  void BuildIndex(JoinIndex* index) const;

  std::vector<std::string> columns_;
  std::shared_ptr<TupleStore> store_;
  // unique_ptr for pointer stability across container growth.
  std::vector<std::unique_ptr<JoinIndex>> indexes_;
};

// The column bookkeeping of one natural join of a relation with columns
// `a_columns` and one with `b_columns`: which positions are joined on,
// which of b's columns are appended, and where each input slot lands in
// the output row. A shape depends on the two schemas only, so a caller
// that runs the same join step many times (DeltaEngine's join plans)
// prepares it once.
struct JoinShape {
  std::vector<int> shared_a;  // positions in a of the join columns
  std::vector<int> shared_b;  // positions in b of the join columns
  std::vector<int> b_extra;   // positions in b of the non-shared columns
  // Output position of each column of a, and of each b_extra column.
  std::vector<int> a_out;
  std::vector<int> b_extra_out;
  std::vector<std::string> out_columns;
};

// The shape of the join of `a_columns` with `b_columns` on every shared
// column name. Its output columns are a's, then b's columns absent from a,
// unless `out_columns` names a permutation of those (asserted): then every
// output row is written in that order (and hashed in it), so a caller that
// needs another schema order gets it with no second pass.
JoinShape PrepareJoin(const std::vector<std::string>& a_columns,
                      const std::vector<std::string>& b_columns,
                      const std::vector<std::string>* out_columns = nullptr);

// Natural join on all shared column names; multiplicities multiply
// (counting algorithm). `work` is incremented per probed pair, giving the
// measured-cost counter the cost model's CPU term mirrors. The kernel
// probes pre-hashed slot buckets and appends output rows as flat slot
// copies, with no probe of the result: the inputs' rows are distinct, so
// are the pairs'. This overload prepares its shape (PrepareJoin, with
// `out_columns`) and builds a transient index on b per call: the
// from-scratch path of DeltaEngine::Recompute and of tests.
Relation NaturalJoin(const Relation& a, const Relation& b, uint64_t* work,
                     const std::vector<std::string>* out_columns = nullptr);

// Same join with a prepared `shape` (PrepareJoin of a's and b's columns),
// probing `b_index` — a persistent index on `b` whose key must equal the
// shape's shared columns (see SharedJoinColumns). Skips the per-call shape
// and hash build; output and `work` accounting are identical to the
// transient overload's. With asserts on, the shape is checked against
// both operands' arity and the index's key positions.
Relation NaturalJoin(const Relation& a, const Relation& b,
                     const JoinShape& shape,
                     const Relation::JoinIndex& b_index, uint64_t* work);

// The columns NaturalJoin(a-with-schema `a_columns`, b) would join on:
// b's column names also present in `a_columns`, in b-schema order. This is
// the key to build b's persistent index on.
std::vector<std::string> SharedJoinColumns(
    const std::vector<std::string>& a_columns, const Relation& b);

}  // namespace dsm

#endif  // DSM_MAINTAIN_RELATION_H_
