#include "msoc/common/error.hpp"

#include <sstream>

namespace msoc {

namespace {

std::string format_parse_error(std::string_view file, int line,
                               const std::string& message) {
  std::ostringstream os;
  os << file << ':';
  if (line > 0) os << line << ':';
  os << ' ' << message;
  return os.str();
}

}  // namespace

ParseError::ParseError(std::string_view file, int line,
                       const std::string& message)
    : Error(format_parse_error(file, line, message)),
      file_(file),
      line_(line) {}

void require(bool condition, std::string_view message) {
  if (!condition) throw InfeasibleError(std::string(message));
}

void check_invariant(bool condition, std::string_view message,
                     std::source_location where) {
  if (condition) return;
  std::ostringstream os;
  os << "invariant violated at " << where.file_name() << ':' << where.line()
     << " (" << where.function_name() << "): " << message;
  throw LogicError(os.str());
}

}  // namespace msoc
