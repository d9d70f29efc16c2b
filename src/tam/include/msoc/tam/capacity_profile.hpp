#pragma once
// The packer's admission kernel for a capacity-gated resource: TAM
// wires (a discrete pool, Load = long long) and instantaneous power (a
// continuous budget, Load = double) ask the same question of a
// coalescing Skyline<Load> — does `load` fit under the capacity on
// every cycle of [start, start+duration), and if not, what is the
// earliest later time worth probing?
//
// Integer loads make every answer exact.  Double loads accumulate
// incrementally, which can leave a level a few ulps off the exact sum;
// the slack absorbs that residue.  test_profile_equivalence pins both
// instantiations to reference ports of the delta-map kernels they
// replaced.
//
// Exposed in a header (rather than buried in packing.cpp) so the
// retry-time logic — historically a source of subtle placement bugs —
// stays unit-testable on hand-built profiles.

#include <cstdint>

#include "msoc/common/error.hpp"
#include "msoc/common/units.hpp"
#include "msoc/tam/counters.hpp"
#include "msoc/tam/skyline.hpp"

namespace msoc::tam {

/// Admission tolerance for a floating-point power budget (peak watts,
/// or a window's power-cycle integral).  Accumulating loads in floating
/// point leaves residue on the order of 1 ulp per event; the slack
/// absorbs it so a fully-drained profile never spuriously rejects a
/// test whose power exactly equals the budget.  The packer's kernels
/// and the check_schedule oracle share this one definition.
[[nodiscard]] inline double power_slack(double budget) noexcept {
  return 1e-9 * (budget < 1.0 ? 1.0 : budget);
}

template <typename Load>
class CapacityProfile {
 public:
  using const_iterator = typename Skyline<Load>::const_iterator;

  /// `capacity` > 0.  `slack` is Load{} for exact (integer) loads and
  /// power_slack(capacity) for floating-point ones.
  explicit CapacityProfile(Load capacity, Load slack = Load{})
      : capacity_(capacity), slack_(slack) {
    check_invariant(capacity > Load{}, "profile capacity must be positive");
  }

  /// True when the level stays within capacity with `load` added over
  /// [start, start+duration).  On failure *retry_at is the first later
  /// segment whose level admits `load`.  The check counts into `tally`.
  [[nodiscard]] bool window_free(Cycles start, Load load, Cycles duration,
                                 Cycles* retry_at,
                                 AdmissionTally& tally) const {
    std::uint64_t visited = 0;
    const bool free =
        window_free_impl(start, load, duration, retry_at, &visited);
    tally.count(free, visited);
    return free;
  }

  /// First segment at/after `it` whose level admits `load`.  The
  /// profile drains to exactly Load{} past its last segment, so a pre-
  /// checked load (load <= capacity) always fits eventually.
  [[nodiscard]] Cycles next_drop(const_iterator it, Load load,
                                 std::uint64_t* visited) const {
    for (; it != level_.end(); ++it) {
      ++*visited;
      if (fits(it->second, load)) return it->first;
    }
    check_invariant(false, "profile level never drops below capacity");
    return 0;
  }

  void reserve(Cycles start, Cycles duration, Load load) {
    level_.add(start, start + duration, load);
    pack_counters().reservations.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] Load capacity() const noexcept { return capacity_; }

  /// The underlying envelope.
  [[nodiscard]] const Skyline<Load>& skyline() const noexcept {
    return level_;
  }

 private:
  [[nodiscard]] bool fits(Load level, Load load) const {
    return level + load <= capacity_ + slack_;
  }

  bool window_free_impl(Cycles start, Load load, Cycles duration,
                        Cycles* retry_at, std::uint64_t* visited) const {
    const const_iterator at = level_.floor(start);
    const Load level = at == level_.end() ? Load{} : at->second;
    const_iterator it = at == level_.end() ? level_.begin() : std::next(at);
    ++*visited;
    if (!fits(level, load)) {
      *retry_at = next_drop(it, load, visited);
      return false;
    }
    for (; it != level_.end() && it->first < start + duration; ++it) {
      ++*visited;
      if (!fits(it->second, load)) {
        *retry_at = next_drop(std::next(it), load, visited);
        return false;
      }
    }
    return true;
  }

  Load capacity_;
  Load slack_;
  Skyline<Load> level_;
};

}  // namespace msoc::tam
