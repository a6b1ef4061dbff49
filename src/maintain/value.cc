#include "maintain/value.h"

#include <cstdio>

namespace dsm {

std::string ValueToString(const Value& value) {
  if (const auto* i = std::get_if<int64_t>(&value)) {
    return std::to_string(*i);
  }
  if (const auto* d = std::get_if<double>(&value)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", *d);
    return buf;
  }
  return std::get<std::string>(value);
}

bool ValueSatisfies(const Value& value, CompareOp op, double constant) {
  double v = 0.0;
  if (const auto* i = std::get_if<int64_t>(&value)) {
    v = static_cast<double>(*i);
  } else if (const auto* d = std::get_if<double>(&value)) {
    v = *d;
  } else {
    return false;
  }
  switch (op) {
    case CompareOp::kLt:
      return v < constant;
    case CompareOp::kGt:
      return v > constant;
    case CompareOp::kEq:
      return v == constant;
  }
  return false;
}

}  // namespace dsm
