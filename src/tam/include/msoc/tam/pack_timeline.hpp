#pragma once
// The rectangle packer's timeline: every resource a placement must fit
// under, behind one admission query and one reservation.
//
// A placement needs `width` TAM wires (always gated), `power` under the
// peak budget (when max_power > 0) and under the sliding-window average
// (when the window is active), and — for an analog test — a gap in its
// wrapper's busy intervals.  The timeline owns one skyline per resource:
// wires, and (under either power budget) power.  Each placement is
// added to each skyline once; the peak and window budgets are two
// read-only checks over the one power skyline.  earliest_feasible()
// checks those in a fixed order and restarts from the failing check's
// retry time, so each probe strictly advances; past the horizon every
// skyline has drained, so a pre-checked test (width <= tam_width,
// power <= max_power, admits_alone) always terminates.
//
// Exposed in a header so the fixpoint stays unit-testable on hand-built
// timelines without running the whole packer.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <type_traits>

#include "msoc/common/error.hpp"
#include "msoc/common/units.hpp"
#include "msoc/soc/soc.hpp"
#include "msoc/tam/counters.hpp"
#include "msoc/tam/interval_set.hpp"
#include "msoc/tam/skyline.hpp"
#include "msoc/tam/windowed_power.hpp"

namespace msoc::tam {

/// The admission kernel for TAM wires (Load = long long) and peak power
/// (Load = double): true when level + load <= ceiling on every cycle of
/// [start, start+duration).  On failure *retry_at is the first later
/// segment whose level admits `load`.  The check counts into `tally`.
/// The ceiling is the capacity plus a slack: 0 for exact integer loads,
/// power_slack(capacity) for double levels a few ulps off the exact sum.
template <typename Load>
[[nodiscard]] bool capacity_free(const Skyline<Load>& level,
                                 std::type_identity_t<Load> ceiling,
                                 Cycles start,
                                 std::type_identity_t<Load> load,
                                 Cycles duration, Cycles* retry_at,
                                 AdmissionTally& tally) {
  using const_iterator = typename Skyline<Load>::const_iterator;
  const auto fits = [&](Load current) { return current + load <= ceiling; };
  const const_iterator at = level.floor(start);
  bool free = fits(at == level.end() ? Load{} : at->second);
  std::uint64_t visited = 1;
  const_iterator it = at == level.end() ? level.begin() : std::next(at);
  for (; free && it != level.end() && it->first < start + duration; ++it) {
    ++visited;
    free = fits(it->second);
  }
  if (!free) {
    // The retry: the first segment past the failing one whose level
    // admits `load`.  The skyline drains to exactly Load{} past its
    // last segment, so a pre-checked load (load <= capacity) always
    // fits eventually.
    for (; it != level.end(); ++it) {
      ++visited;
      if (fits(it->second)) break;
    }
    check_invariant(it != level.end(),
                    "skyline level never drops below capacity");
    *retry_at = it->first;
  }
  tally.count(free, visited);
  return free;
}

class PackTimeline {
 public:
  /// The (tam_width, max_power, window) triple a Schedule carries:
  /// max_power <= 0 and an inactive window leave that axis unconstrained.
  explicit PackTimeline(int tam_width, double max_power = 0.0,
                        soc::PowerWindow window = {})
      : wire_ceiling_(tam_width) {
    check_invariant(tam_width > 0, "TAM width must be positive");
    if (max_power > 0.0) {
      peak_ceiling_ = max_power + power_slack(max_power);
      ++axes_;
    }
    if (window.active()) {
      window_.emplace(window.cycles, window.limit);
      ++axes_;
    }
  }

  /// Earliest start >= `not_before` at which the test avoids `blocked`
  /// and fits the wires, the peak budget and the window budget (checked
  /// in that order; any failure restarts the sequence from its retry
  /// time).  A blocked-set rejection counts as a failed wire admission
  /// check, since the wire check is what the blocked set guards.  The
  /// whole probe counts into one local tally, published once.  Not
  /// const: the window check reuses its scratch buffers.
  [[nodiscard]] Cycles earliest_feasible(int width, double power,
                                         Cycles duration,
                                         const IntervalSet& blocked,
                                         Cycles not_before = 0) {
    AdmissionTally tally;
    Cycles candidate = not_before;
    while (true) {
      Cycles retry = blocked.first_fit(candidate, duration);
      if (retry != candidate) {
        tally.count(false, 0);
      } else if (capacity_free(wires_, wire_ceiling_, candidate, width,
                               duration, &retry, tally) &&
                 (!peak_ceiling_.has_value() ||
                  capacity_free(power_, *peak_ceiling_, candidate, power,
                                duration, &retry, tally)) &&
                 (!window_.has_value() ||
                  window_->window_free(power_, drain_end_, candidate, power,
                                       duration, &retry, tally))) {
        tally.publish();
        return candidate;
      }
      check_invariant(retry > candidate, "packer failed to advance");
      candidate = retry;
    }
  }

  /// Commits a placement: once into each skyline, counted as one
  /// reservation per active axis.
  void reserve(Cycles start, Cycles duration, int width, double power) {
    wires_.add(start, start + duration, width);
    if (peak_ceiling_.has_value() || window_.has_value()) {
      power_.add(start, start + duration, power);
    }
    drain_end_ = std::max(drain_end_, start + duration);
    pack_counters().reservations.fetch_add(axes_, std::memory_order_relaxed);
  }

 private:
  long long wire_ceiling_;
  std::optional<double> peak_ceiling_;  ///< max_power + its slack.
  std::optional<WindowedPowerProfile> window_;
  std::uint64_t axes_ = 1;  ///< Wires, plus each active power budget.
  Skyline<long long> wires_;
  Skyline<double> power_;  ///< Kept only under a power budget.
  Cycles drain_end_ = 0;   ///< End of the last reservation.
};

}  // namespace msoc::tam
