#ifndef LAKEKIT_COMMON_STATUS_H_
#define LAKEKIT_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace lakekit {

/// Error category for a failed operation.
///
/// lakekit does not throw exceptions across API boundaries; fallible
/// operations return `Status` (or `Result<T>`, see result.h) in the style of
/// RocksDB and Apache Arrow.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kIoError,
  kCorruption,
  kNotSupported,
  kFailedPrecondition,
  kAborted,       // e.g. optimistic-concurrency conflicts, cancellation
  kOutOfRange,
  kInternal,
  kDeadlineExceeded,  // a deadline expired before the operation finished
  kUnavailable,       // backend temporarily unavailable (flaky source,
                      // open circuit breaker) — transient, retryable
  kResourceExhausted,  // a memory/quota budget refused the reservation
                       // (common/memory_budget.h) — permanent for *this*
                       // attempt: retrying the same over-budget query
                       // re-exhausts the same budget. Load shedding at
                       // admission uses kUnavailable instead, which IS
                       // retryable (the queue drains).
};

/// Returns a stable human-readable name for `code` ("OK", "NotFound", ...).
std::string_view StatusCodeName(StatusCode code);

/// The result of an operation that can fail but returns no value.
///
/// A `Status` is cheap to copy in the OK case (no allocation) and carries a
/// code plus a context message otherwise. Typical use:
///
///   LAKEKIT_RETURN_IF_ERROR(store.Put(key, value));
///
/// `Status` is `[[nodiscard]]`: silently dropping one is a compile error.
/// Intentional ignores must be spelled `(void)expr;  // ignore: <why>` so the
/// lint tool (tools/lint) can audit them.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Factory helpers, one per StatusCode.
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
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  [[nodiscard]] bool IsNotFound() const {
    return code_ == StatusCode::kNotFound;
  }
  [[nodiscard]] bool IsAlreadyExists() const {
    return code_ == StatusCode::kAlreadyExists;
  }
  [[nodiscard]] bool IsAborted() const { return code_ == StatusCode::kAborted; }
  [[nodiscard]] bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  [[nodiscard]] bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }
  [[nodiscard]] bool IsUnavailable() const {
    return code_ == StatusCode::kUnavailable;
  }
  [[nodiscard]] bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }

  /// "OK" or "<CodeName>: <message>".
  [[nodiscard]] std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Whether a *later attempt of the same operation* can plausibly succeed —
/// the Status-level classification every retry/resilience layer shares
/// (`RetryPolicy`, the federated scan path):
///
///   - `kIoError`: environment failures from the storage tier (descriptor
///     exhaustion, injected faults, flaky remote stores);
///   - `kUnavailable`: a backend that is down *right now* (open circuit
///     breaker, fault-injected source) but expected back.
///
/// Everything else is permanent. `kDeadlineExceeded` in particular is
/// permanent by construction: the caller's budget is spent, and retrying
/// can only exceed it further. `kResourceExhausted` is likewise permanent:
/// an over-budget query re-runs the same plan against the same memory
/// budget, so an immediate retry re-exhausts it (overload *shedding* at
/// admission surfaces as `kUnavailable` precisely because waiting out the
/// queue CAN help — see query/admission.h). Logic errors (`kNotFound`,
/// `kAlreadyExists`, `kCorruption`, ...) stay permanent — retrying a lost
/// `PutIfAbsent` race would turn it into a livelock.
[[nodiscard]] inline bool IsTransientError(const Status& status) {
  return status.code() == StatusCode::kIoError ||
         status.code() == StatusCode::kUnavailable;
}

}  // namespace lakekit

#define LAKEKIT_CONCAT_IMPL_(a, b) a##b
#define LAKEKIT_CONCAT_(a, b) LAKEKIT_CONCAT_IMPL_(a, b)

/// Propagates a non-OK Status to the caller.
///
/// The status lives in an `if`-init scope under a `__COUNTER__`-unique name,
/// so nested/adjacent expansions never shadow each other and `expr` may
/// itself reference a variable named `_lakekit_status`.
#define LAKEKIT_RETURN_IF_ERROR(expr) \
  LAKEKIT_RETURN_IF_ERROR_IMPL_(LAKEKIT_CONCAT_(_lakekit_status_, __COUNTER__), expr)

#define LAKEKIT_RETURN_IF_ERROR_IMPL_(name, expr)            \
  do {                                                       \
    if (::lakekit::Status name = (expr); !name.ok()) {       \
      return name;                                           \
    }                                                        \
  } while (0)

/// Aborts the process if `expr` yields a non-OK Status (or a Result whose
/// status is non-OK). For benches, examples, and other contexts where an
/// error cannot be propagated and must not be silently swallowed.
///
/// The Status is copied out within `expr`'s full-expression, so an `expr`
/// such as `engine.Query(sql).status()` — a reference into a temporary
/// Result — is read before that temporary dies.
#define LAKEKIT_CHECK_OK(expr) \
  LAKEKIT_CHECK_OK_IMPL_(LAKEKIT_CONCAT_(_lakekit_check_, __COUNTER__), expr)

#define LAKEKIT_CHECK_OK_IMPL_(name, expr)                                  \
  do {                                                                      \
    if (const ::lakekit::Status name = ::lakekit::ToCheckStatus((expr));    \
        !name.ok()) {                                                       \
      ::lakekit::internal::CheckOkFailed(#expr, __FILE__, __LINE__, name);  \
    }                                                                       \
  } while (0)

namespace lakekit {
inline const Status& ToCheckStatus(const Status& s) { return s; }
template <typename R>
const Status& ToCheckStatus(const R& r) {
  return r.status();
}
namespace internal {
/// Prints "<file>:<line>: CHECK_OK(<expr>) failed: <status>" and aborts.
[[noreturn]] void CheckOkFailed(const char* expr, const char* file, int line,
                                const Status& status);
}  // namespace internal
}  // namespace lakekit

#endif  // LAKEKIT_COMMON_STATUS_H_
