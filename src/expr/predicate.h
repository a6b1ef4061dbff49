// Predicates of the form "Table.Attribute {<, >, =} Constant", the form the
// paper's evaluation generates (Section 6.1.2).

#ifndef DSM_EXPR_PREDICATE_H_
#define DSM_EXPR_PREDICATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/table_set.h"

namespace dsm {

enum class CompareOp : uint8_t {
  kLt,
  kGt,
  kEq,
};

const char* CompareOpToString(CompareOp op);

struct Predicate {
  TableId table = 0;
  uint16_t column = 0;
  CompareOp op = CompareOp::kEq;
  double value = 0.0;

  // "USERS.followers > 1000".
  std::string ToString(const Catalog& catalog) const;

  friend bool operator==(const Predicate& a, const Predicate& b) {
    return a.table == b.table && a.column == b.column && a.op == b.op &&
           a.value == b.value;
  }
  // Total order used to keep predicate lists in canonical form.
  friend bool operator<(const Predicate& a, const Predicate& b);
};

// Sorts and dedupes, producing the canonical representation used in view
// keys (so that e.g. {p1, p2} and {p2, p1} identify the same view). A
// -0.0 constant becomes +0.0, so equal predicates have equal bits.
void NormalizePredicates(std::vector<Predicate>* preds);

// The subset of `preds` whose table is a member of `tables`.
std::vector<Predicate> PredicatesOnTables(
    const std::vector<Predicate>& preds, TableSet tables);

// True if `a` is a subset of `b` (both must be normalized).
bool PredicateSubset(const std::vector<Predicate>& a,
                     const std::vector<Predicate>& b);

// Predicates in `b` but not in `a` (both normalized; a must be a subset of
// b for the result to be meaningful as "residual predicates").
std::vector<Predicate> PredicateDifference(
    const std::vector<Predicate>& a, const std::vector<Predicate>& b);

// Bloom-style superset signature: each predicate sets one bit. If
// PredicateSubset(a, b) then (Signature(a) & ~Signature(b)) == 0, so a
// failed bit test refutes subset-ness without walking the lists. The
// converse does not hold (false positives are verified by PredicateSubset).
uint64_t PredicateSignature(const std::vector<Predicate>& preds);

}  // namespace dsm

#endif  // DSM_EXPR_PREDICATE_H_
