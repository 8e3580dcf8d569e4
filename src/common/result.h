// Result<T>: value-or-Status, the library's StatusOr equivalent.

#ifndef SWOPE_COMMON_RESULT_H_
#define SWOPE_COMMON_RESULT_H_

#include <cassert>
#include <optional>
#include <utility>

#include "src/common/status.h"

namespace swope {

/// Holds either a value of type T or a non-OK Status explaining why the
/// value could not be produced. Constructing a Result from an OK status is
/// a programming error (asserted in debug builds, demoted to an Internal
/// status otherwise).
///
/// Like Status, the class is [[nodiscard]]: a dropped Result silently
/// swallows the error path, so every producer call must be consumed.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit construction from a value (success).
  Result(T value) : status_(Status::OK()), value_(std::move(value)) {}

  /// Implicit construction from a non-OK status (failure).
  Result(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "Result constructed from OK status without value");
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  Result(const Result&) = default;
  Result& operator=(const Result&) = default;
  Result(Result&&) noexcept = default;
  Result& operator=(Result&&) noexcept = default;

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Access the contained value. Must only be called when ok().
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
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  /// `*std::move(result)` moves the value out; without this overload it
  /// would bind the const& one above and copy.
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` when this Result holds an error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace swope

/// Evaluates `rexpr` (a Result<T> expression); on error returns its status
/// from the enclosing function, otherwise moves the value into `lhs`.
#define SWOPE_ASSIGN_OR_RETURN(lhs, rexpr)            \
  auto SWOPE_CONCAT_(_swope_result_, __LINE__) = (rexpr); \
  if (!SWOPE_CONCAT_(_swope_result_, __LINE__).ok())      \
    return SWOPE_CONCAT_(_swope_result_, __LINE__).status(); \
  lhs = std::move(SWOPE_CONCAT_(_swope_result_, __LINE__)).value()

#define SWOPE_CONCAT_IMPL_(a, b) a##b
#define SWOPE_CONCAT_(a, b) SWOPE_CONCAT_IMPL_(a, b)

#endif  // SWOPE_COMMON_RESULT_H_
