// A dynamic data sharing: the ad-hoc query a data buyer purchases, whose
// result the service provider must create and keep up to date.

#ifndef DSM_SHARING_SHARING_H_
#define DSM_SHARING_SHARING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/table_set.h"
#include "cluster/cluster.h"
#include "expr/predicate.h"
#include "expr/view_key.h"

namespace dsm {

using SharingId = uint64_t;

class Sharing {
 public:
  Sharing() = default;

  // A sharing joining `tables` (natural join), filtered by `predicates`,
  // delivered to `destination`.
  Sharing(TableSet tables, std::vector<Predicate> predicates,
          ServerId destination, std::string buyer = "");

  TableSet tables() const { return tables_; }
  const std::vector<Predicate>& predicates() const { return predicates_; }
  ServerId destination() const { return destination_; }
  const std::string& buyer() const { return buyer_; }

  // Number of joins in any plan for this sharing: #join(S) = |tables| - 1.
  int NumJoins() const { return tables_.size() - 1; }

  // The key of the sharing's final result.
  ViewKey ResultKey() const { return ViewKey(tables_, predicates_); }

  // True if the two sharings are the same query (criterion (1) of the
  // fairness criteria treats such sharings as identical buyers' requests,
  // whatever plans the provider picked for them).
  bool IdenticalTo(const Sharing& other) const;

  // True if this sharing's tuples are a subset of `other`'s: same table
  // set and a superset of `other`'s predicates (criterion (3)).
  bool ContainedIn(const Sharing& other) const;

  // Stable hash of the query (tables + predicates), used to group
  // identical sharings.
  uint64_t QueryHash() const;

  std::string ToString(const Catalog& catalog) const;

 private:
  TableSet tables_;
  std::vector<Predicate> predicates_;  // normalized
  ServerId destination_ = 0;
  std::string buyer_;
};

}  // namespace dsm

#endif  // DSM_SHARING_SHARING_H_
