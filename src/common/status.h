// Status / Result<T> error handling for the dsm library.
//
// Public APIs in this library do not throw exceptions. Fallible operations
// return a Status (when there is no payload) or a Result<T> (a Status plus a
// value on success), following the idiom used by production database
// libraries such as RocksDB and Apache Arrow.

#ifndef DSM_COMMON_STATUS_H_
#define DSM_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace dsm {

// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  // A sharing was rejected because no plan satisfies every server's
  // capacity constraint (Algorithm 2's reject branch).
  kCapacityExceeded,
  // The fair-costing criteria cannot all be satisfied (Lemma 5.2:
  // sum of LPCs is below the global plan cost).
  kInfeasible,
  kInternal,
  // The call's input was valid once but the state it was computed
  // against has changed (e.g. a stale plan evaluation).
  kFailedPrecondition,
};

// Returns a stable human-readable name for `code` (e.g. "InvalidArgument").
const char* StatusCodeToString(StatusCode code);

// A success-or-error outcome. Cheap to copy in the success case.
class Status {
 public:
  // Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status CapacityExceeded(std::string msg) {
    return Status(StatusCode::kCapacityExceeded, std::move(msg));
  }
  static Status Infeasible(std::string msg) {
    return Status(StatusCode::kInfeasible, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "<Code>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

// A Status with a payload of type T on success.
template <typename T>
class Result {
 public:
  // Implicit conversions from a value / an error Status keep call sites
  // readable (`return value;` / `return Status::NotFound(...);`).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result(Status) requires an error status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  // Precondition: ok().
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace dsm

// Propagates a non-OK Status to the caller.
#define DSM_RETURN_IF_ERROR(expr)            \
  do {                                       \
    ::dsm::Status _dsm_status = (expr);      \
    if (!_dsm_status.ok()) return _dsm_status; \
  } while (false)

// Evaluates a Result<T> expression; on error propagates the Status,
// otherwise assigns the value to `lhs`.
#define DSM_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                              \
  if (!tmp.ok()) return tmp.status();             \
  lhs = std::move(tmp).value()

#define DSM_ASSIGN_OR_RETURN_CONCAT(a, b) a##b
#define DSM_ASSIGN_OR_RETURN_NAME(a, b) DSM_ASSIGN_OR_RETURN_CONCAT(a, b)
#define DSM_ASSIGN_OR_RETURN(lhs, expr) \
  DSM_ASSIGN_OR_RETURN_IMPL(            \
      DSM_ASSIGN_OR_RETURN_NAME(_dsm_result_, __LINE__), lhs, expr)

#endif  // DSM_COMMON_STATUS_H_
