#include "msoc/soc/core.hpp"

#include <algorithm>
#include <numeric>
#include <string>
#include <string_view>
#include <tuple>

#include "msoc/common/error.hpp"

namespace msoc::soc {

long long DigitalCore::total_scan_cells() const {
  return std::accumulate(scan_chain_lengths.begin(),
                         scan_chain_lengths.end(), 0LL);
}

void DigitalCore::validate() const {
  // Messages are built only on failure: the wrapper kernel validates
  // every core it designs.
  const auto fail = [this](std::string_view what) {
    throw InfeasibleError(std::string(what) + ": core " + name);
  };
  if (inputs < 0 || outputs < 0 || bidirs < 0) {
    fail("I/O counts must be non-negative");
  }
  if (patterns < 1) fail("pattern count must be positive");
  if (!(power >= 0.0)) fail("test power must be non-negative");
  for (int len : scan_chain_lengths) {
    if (len <= 0) fail("scan chain lengths must be positive");
  }
  if (inputs == 0 && outputs == 0 && bidirs == 0 &&
      scan_chain_lengths.empty()) {
    fail("core has neither I/O nor scan");
  }
}

Cycles AnalogCore::total_cycles() const {
  Cycles total = 0;
  for (const AnalogTestSpec& t : tests) total += t.cycles;
  return total;
}

int AnalogCore::tam_width() const {
  int w = 1;
  for (const AnalogTestSpec& t : tests) w = std::max(w, t.tam_width);
  return w;
}

Hertz AnalogCore::max_sampling_frequency() const {
  Hertz f{0.0};
  for (const AnalogTestSpec& t : tests) f = std::max(f, t.f_sample);
  return f;
}

int AnalogCore::resolution_bits() const {
  int b = 0;
  for (const AnalogTestSpec& t : tests) b = std::max(b, t.resolution_bits);
  return b;
}

double AnalogCore::max_power() const {
  double p = 0.0;
  for (const AnalogTestSpec& t : tests) p = std::max(p, t.power);
  return p;
}

bool AnalogCore::tests_equivalent(const AnalogCore& other) const {
  if (tests.size() != other.tests.size()) return false;
  // Power joins the key: under a power budget two cores with identical
  // timing but different dissipation are NOT interchangeable.
  using Key = std::tuple<Cycles, int, double, int, double>;
  const auto keys = [](const AnalogCore& c) {
    std::vector<Key> out;
    out.reserve(c.tests.size());
    for (const AnalogTestSpec& t : c.tests) {
      out.emplace_back(t.cycles, t.tam_width, t.f_sample.hz(),
                       t.resolution_bits, t.power);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  return keys(*this) == keys(other);
}

void AnalogCore::validate() const {
  if (tests.empty()) throw InfeasibleError("analog core has no tests: " + name);
  for (const AnalogTestSpec& t : tests) {
    const auto fail = [this, &t](std::string_view what) {
      throw InfeasibleError(std::string(what) + ": " + name + "." + t.name);
    };
    if (t.cycles <= 0) fail("test length must be positive");
    if (t.tam_width < 1) fail("test TAM width must be >= 1");
    if (t.resolution_bits < 1 || t.resolution_bits > 16) {
      fail("resolution out of range");
    }
    if (!(t.f_sample.hz() > 0.0)) fail("sampling frequency must be positive");
    if (!(t.f_low <= t.f_high)) fail("band edges out of order");
    if (!(t.power >= 0.0)) fail("test power must be non-negative");
  }
}

}  // namespace msoc::soc
