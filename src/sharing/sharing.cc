#include "sharing/sharing.h"

#include "common/string_util.h"

namespace dsm {

Sharing::Sharing(TableSet tables, std::vector<Predicate> predicates,
                 ServerId destination, std::string buyer)
    : tables_(tables),
      predicates_(std::move(predicates)),
      destination_(destination),
      buyer_(std::move(buyer)) {
  NormalizePredicates(&predicates_);
}

bool Sharing::IdenticalTo(const Sharing& other) const {
  return tables_ == other.tables_ && predicates_ == other.predicates_;
}

bool Sharing::ContainedIn(const Sharing& other) const {
  if (!(tables_ == other.tables_)) return false;
  // More predicates -> fewer tuples: this ⊆ other iff other's predicates
  // are a subset of ours.
  return PredicateSubset(other.predicates_, predicates_);
}

uint64_t Sharing::QueryHash() const {
  uint64_t h = tables_.mask() * 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  for (const Predicate& p : predicates_) {
    uint64_t bits;
    __builtin_memcpy(&bits, &p.value, sizeof(bits));
    mix((static_cast<uint64_t>(p.table) << 40) ^
        (static_cast<uint64_t>(p.column) << 24) ^
        (static_cast<uint64_t>(p.op) << 16) ^ bits);
  }
  return h;
}

std::string Sharing::ToString(const Catalog& catalog) const {
  std::string out = ViewKey(tables_, predicates_).ToString(catalog);
  out += " -> server " + std::to_string(destination_);
  if (!buyer_.empty()) out += " (buyer " + buyer_ + ")";
  return out;
}

}  // namespace dsm
