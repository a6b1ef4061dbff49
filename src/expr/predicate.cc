#include "expr/predicate.h"

#include <algorithm>
#include <cstdio>
#include <tuple>

namespace dsm {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return "<";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kEq:
      return "=";
  }
  return "?";
}

std::string Predicate::ToString(const Catalog& catalog) const {
  const TableDef& t = catalog.table(table);
  const std::string col = column < t.columns.size()
                              ? t.columns[column].name
                              : "col" + std::to_string(column);
  char val[32];
  std::snprintf(val, sizeof(val), "%g", value);
  return t.name + "." + col + " " + CompareOpToString(op) + " " + val;
}

bool operator<(const Predicate& a, const Predicate& b) {
  return std::tie(a.table, a.column, a.op, a.value) <
         std::tie(b.table, b.column, b.op, b.value);
}

void NormalizePredicates(std::vector<Predicate>* preds) {
  // -0.0 == +0.0, but the hashes read the constant's bits: one zero keeps
  // equal predicates hashing equal.
  for (Predicate& p : *preds) {
    if (p.value == 0.0) p.value = 0.0;
  }
  std::sort(preds->begin(), preds->end());
  preds->erase(std::unique(preds->begin(), preds->end()), preds->end());
}

std::vector<Predicate> PredicatesOnTables(
    const std::vector<Predicate>& preds, TableSet tables) {
  std::vector<Predicate> out;
  for (const Predicate& p : preds) {
    if (tables.Contains(p.table)) out.push_back(p);
  }
  return out;
}

bool PredicateSubset(const std::vector<Predicate>& a,
                     const std::vector<Predicate>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

std::vector<Predicate> PredicateDifference(
    const std::vector<Predicate>& a, const std::vector<Predicate>& b) {
  std::vector<Predicate> out;
  std::set_difference(b.begin(), b.end(), a.begin(), a.end(),
                      std::back_inserter(out));
  return out;
}

namespace {

uint64_t HashPredicate(const Predicate& p) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(p.value));
  __builtin_memcpy(&bits, &p.value, sizeof(bits));
  uint64_t v = (static_cast<uint64_t>(p.table) << 40) ^
               (static_cast<uint64_t>(p.column) << 24) ^
               (static_cast<uint64_t>(p.op) << 16) ^ bits;
  // splitmix64 finalizer: spreads the structured bit layout above.
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
  return v ^ (v >> 31);
}

}  // namespace

uint64_t PredicateSignature(const std::vector<Predicate>& preds) {
  uint64_t sig = 0;
  for (const Predicate& p : preds) {
    sig |= 1ULL << (HashPredicate(p) & 63);
  }
  return sig;
}

}  // namespace dsm
