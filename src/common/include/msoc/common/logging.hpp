#pragma once
// Leveled logging with a process-global threshold.
//
// The planner logs the sharing combinations it drops at kDebug so
// Table-4 style traces can be inspected without recompiling; default
// threshold is kWarn to keep bench output clean.

#include <sstream>
#include <string>

namespace msoc {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Sets the global threshold; messages below it are dropped.
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

/// Emits `message` to stderr when `level` >= the global threshold.
void log(LogLevel level, const std::string& message);

namespace detail {
template <typename... Args>
std::string concat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}
}  // namespace detail

template <typename... Args>
void log_debug(const Args&... args) {
  if (log_level() <= LogLevel::kDebug) {
    log(LogLevel::kDebug, detail::concat(args...));
  }
}
template <typename... Args>
void log_info(const Args&... args) {
  if (log_level() <= LogLevel::kInfo) {
    log(LogLevel::kInfo, detail::concat(args...));
  }
}
template <typename... Args>
void log_warn(const Args&... args) {
  if (log_level() <= LogLevel::kWarn) {
    log(LogLevel::kWarn, detail::concat(args...));
  }
}

}  // namespace msoc
