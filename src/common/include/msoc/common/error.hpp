#pragma once
// Error handling primitives shared by all msoc libraries.
//
// The libraries throw exceptions derived from msoc::Error for all
// recoverable failures (bad input files, infeasible constraints, domain
// violations).  Internal invariant violations use check_invariant(), which
// throws LogicError carrying the source location.

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace msoc {

/// Base class for all errors thrown by the msoc libraries.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Malformed or inconsistent input (e.g. a bad .soc file).
class ParseError : public Error {
 public:
  ParseError(std::string_view file, int line, const std::string& message);

  /// Name of the input (file path or buffer label) that failed to parse.
  [[nodiscard]] const std::string& file() const noexcept { return file_; }
  /// 1-based line number of the offending token, 0 when unknown.
  [[nodiscard]] int line() const noexcept { return line_; }

 private:
  std::string file_;
  int line_ = 0;
};

/// A request that cannot be satisfied (e.g. TAM width of zero, or a
/// sharing partition that violates the sharing policy).
class InfeasibleError : public Error {
 public:
  using Error::Error;
};

/// Violated internal invariant; indicates a bug in this library.
class LogicError : public Error {
 public:
  using Error::Error;
};

/// Throws InfeasibleError with `message` when `condition` is false.
/// Both checks copy `message` only on failure.  A message that has to be
/// concatenated belongs behind an `if`, so passing checks allocate nothing.
void require(bool condition, std::string_view message);

/// Throws LogicError annotated with the call site when `condition` is false.
void check_invariant(
    bool condition, std::string_view message,
    std::source_location where = std::source_location::current());

}  // namespace msoc
