#include "msoc/common/format.hpp"

#include <charconv>
#include <sstream>

#include "msoc/common/error.hpp"
#include "msoc/common/table.hpp"

namespace msoc {

std::string Hertz::to_string() const {
  std::ostringstream os;
  const double v = hz_;
  const auto emit = [&os](double scaled, const char* unit) {
    // Trim trailing ".0" for integral values, else keep up to 2 decimals.
    if (scaled == static_cast<double>(static_cast<long long>(scaled))) {
      os << static_cast<long long>(scaled) << unit;
    } else {
      os << fixed(scaled, 2) << unit;
    }
  };
  if (v >= 1e6) emit(v / 1e6, " MHz");
  else if (v >= 1e3) emit(v / 1e3, " kHz");
  else emit(v, " Hz");
  return os.str();
}

std::string with_thousands(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t first_group = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - first_group) % 3 == 0 && i >= first_group) out += ',';
    out += digits[i];
  }
  return out;
}

std::string percent(double value) { return fixed(value, 1); }

std::string braces(const std::vector<std::string>& names) {
  std::string out = "{";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ',';
    out += names[i];
  }
  out += '}';
  return out;
}

std::string round_trip_double(double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

std::string shortest_double(double value) {
  char buf[64];
  const std::to_chars_result result =
      std::to_chars(buf, buf + sizeof buf, value);
  check_invariant(result.ec == std::errc(),
                  "shortest_double buffer too small");
  return std::string(buf, result.ptr);
}

std::string hex64(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[value & 0xF];
    value >>= 4;
  }
  return out;
}

}  // namespace msoc
