#pragma once
// The rectangle packer's timeline: every resource a placement must fit
// under, behind one admission query and one reservation.
//
// A placement needs `width` TAM wires (always gated), `power` under the
// peak budget (when max_power > 0) and under the sliding-window average
// (when the window is active), and — for an analog test — a gap in its
// wrapper's busy intervals.  earliest_feasible() checks those in a fixed
// order and restarts from the failing check's retry time, so each probe
// strictly advances; past the horizon every profile has drained, so a
// pre-checked test (width <= tam_width, power <= max_power, admits_alone)
// always terminates.
//
// Exposed in a header so the fixpoint stays unit-testable on hand-built
// timelines without running the whole packer.

#include <optional>

#include "msoc/common/error.hpp"
#include "msoc/common/units.hpp"
#include "msoc/soc/soc.hpp"
#include "msoc/tam/capacity_profile.hpp"
#include "msoc/tam/counters.hpp"
#include "msoc/tam/interval_set.hpp"
#include "msoc/tam/windowed_power.hpp"

namespace msoc::tam {

class PackTimeline {
 public:
  /// The (tam_width, max_power, window) triple a Schedule carries:
  /// max_power <= 0 and an inactive window leave that axis unconstrained.
  explicit PackTimeline(int tam_width, double max_power = 0.0,
                        soc::PowerWindow window = {})
      : wires_(tam_width) {
    if (max_power > 0.0) peak_.emplace(max_power, power_slack(max_power));
    if (window.active()) window_.emplace(window.cycles, window.limit);
  }

  /// Earliest start >= `not_before` at which the test avoids `blocked`
  /// and fits the wires, the peak budget and the window budget (checked
  /// in that order; any failure restarts the sequence from its retry
  /// time).  A blocked-set rejection counts as a failed wire admission
  /// check, since the wire check is what the blocked set guards.  The
  /// whole probe counts into one local tally, published once.  Not
  /// const: the window check reuses the timeline's scratch buffers.
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
      } else if (wires_.window_free(candidate, width, duration, &retry,
                                    tally) &&
                 (!peak_.has_value() ||
                  peak_->window_free(candidate, power, duration, &retry,
                                     tally)) &&
                 (!window_.has_value() ||
                  window_->window_free(candidate, power, duration, &retry,
                                       tally))) {
        tally.publish();
        return candidate;
      }
      check_invariant(retry > candidate, "packer failed to advance");
      candidate = retry;
    }
  }

  /// Commits a placement into every active profile.
  void reserve(Cycles start, Cycles duration, int width, double power) {
    wires_.reserve(start, duration, width);
    if (peak_.has_value()) peak_->reserve(start, duration, power);
    if (window_.has_value()) window_->reserve(start, duration, power);
  }

 private:
  CapacityProfile<long long> wires_;
  std::optional<CapacityProfile<double>> peak_;
  std::optional<WindowedPowerProfile> window_;
};

}  // namespace msoc::tam
