// A dynamic data sharing: the ad-hoc query a data buyer purchases, whose
// result the service provider must create and keep up to date.
//
// The query is a ViewKey (table set plus normalized predicates), so every
// question the market asks of two sharings' queries is a ViewKey one:
// identical sharings (fairness criterion (1)) have equal ResultKeys, a
// contained sharing (criterion (3)) has a ResultKey its container's
// Subsumes, and identity groups hash with ViewKeyHash.

#ifndef DSM_SHARING_SHARING_H_
#define DSM_SHARING_SHARING_H_

#include <cstddef>
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

  TableSet tables() const { return query_.tables; }
  const std::vector<Predicate>& predicates() const {
    return query_.predicates;
  }
  ServerId destination() const { return destination_; }
  const std::string& buyer() const { return buyer_; }

  // Number of joins in any plan for this sharing: #join(S) = |tables| - 1.
  int NumJoins() const { return query_.tables.size() - 1; }

  // The sharing's query, which is also the key of its final result.
  const ViewKey& ResultKey() const { return query_; }

  std::string ToString(const Catalog& catalog) const;

 private:
  ViewKey query_;  // normalized
  ServerId destination_ = 0;
  std::string buyer_;
};

// A query delivered to one server. Delivery is part of every plan, so two
// sharings with equal DeliveredQuery have the same plans and the same LPC:
// the planner's identical-plan cache and the LPC memo are keyed by it.
struct DeliveredQuery {
  ViewKey query;
  ServerId destination = 0;

  explicit DeliveredQuery(const Sharing& s)
      : query(s.ResultKey()), destination(s.destination()) {}

  friend bool operator==(const DeliveredQuery&,
                         const DeliveredQuery&) = default;
};

struct DeliveredQueryHash {
  size_t operator()(const DeliveredQuery& k) const {
    return ViewKeyHash()(k.query) ^
           (0x9e3779b97f4a7c15ULL * (k.destination + 1));
  }
};

}  // namespace dsm

#endif  // DSM_SHARING_SHARING_H_
