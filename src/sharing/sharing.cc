#include "sharing/sharing.h"

namespace dsm {

Sharing::Sharing(TableSet tables, std::vector<Predicate> predicates,
                 ServerId destination, std::string buyer)
    : query_(tables, std::move(predicates)),
      destination_(destination),
      buyer_(std::move(buyer)) {}

std::string Sharing::ToString(const Catalog& catalog) const {
  std::string out = query_.ToString(catalog);
  out += " -> server " + std::to_string(destination_);
  if (!buyer_.empty()) out += " (buyer " + buyer_ + ")";
  return out;
}

}  // namespace dsm
