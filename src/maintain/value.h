// Values and tuples for the maintenance engine's in-memory relations.

#ifndef DSM_MAINTAIN_VALUE_H_
#define DSM_MAINTAIN_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "expr/predicate.h"

namespace dsm {

using Value = std::variant<int64_t, double, std::string>;
using Tuple = std::vector<Value>;

std::string ValueToString(const Value& value);

// Numeric comparison against a predicate constant. String values satisfy
// no numeric predicate (the paper's generated predicates are numeric:
// "Table.Attribute [>, <, =] Constant").
bool ValueSatisfies(const Value& value, CompareOp op, double constant);

}  // namespace dsm

#endif  // DSM_MAINTAIN_VALUE_H_
