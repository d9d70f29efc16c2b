#pragma once
// Sliding-window average-power check for the rectangle packer: the
// sustained-power companion to the instantaneous peak budget.  The
// constraint is thermal — every window of W cycles must average at most
// L power units, i.e. the load integral over any [w, w+W) may not
// exceed L*W.  The check reads PackTimeline's one power skyline (the
// peak check reads the same envelope) and keeps only query state.
//
// The admission check exploits the load being piecewise constant: the
// sliding integral I(w) = integral over [w, w+W) is piecewise LINEAR in
// w, with breakpoints exactly where w or w+W crosses a breakpoint of
// the (existing + candidate) signal.  Its maximum over the candidate's
// span is therefore attained at one of O(segments crossed) candidate
// window starts.  The check builds a prefix-integral table from the
// segments the span actually touches — windows wholly before or after
// the candidate are already satisfied by the timeline's invariant and
// are never visited — then walks the candidates in ascending order as
// a merge of already-sorted streams (for_each_window_start), reading
// each window's integral off the table with two forward cursors: no
// sort, no binary search.
//
// Same retry-time contract as capacity_free: on failure report a
// strictly later start worth probing (the next load breakpoint, or one
// window past the drain once the timeline is clear), so the packer's
// fixpoint always advances.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/common/units.hpp"
#include "msoc/tam/counters.hpp"
#include "msoc/tam/skyline.hpp"

namespace msoc::tam {

/// Admission tolerance for a floating-point power budget (peak watts,
/// or a window's power-cycle integral).  Accumulating loads in floating
/// point leaves residue on the order of 1 ulp per event; the slack
/// absorbs it so a fully-drained skyline never spuriously rejects a
/// test whose power exactly equals the budget.  The packer's checks
/// and the check_schedule oracle share this one definition.
[[nodiscard]] inline double power_slack(double budget) noexcept {
  return 1e-9 * (budget < 1.0 ? 1.0 : budget);
}

/// Visits, in ascending order and each exactly once, every window
/// start in [lo, end) at which the sliding W-cycle integral can kink for
/// a candidate over [start, end): each breakpoint t of `times` as a
/// window start and as a window end (t - W), plus `start` and end - W —
/// stopping at the first start `visit` rejects.  `times` is the
/// strictly ascending clipped table window_free builds: times[0] = lo
/// (start - W, or 0 when start < W) and every t < end + W.
///
/// The set is the merge of two already-sorted streams, so no sort:
///   A: t in [lo, end), with `start` merged in;
///   B: t - W for t >= lo + W (t < end + W puts t - W below end), with
///      end - W merged in when end >= W (it is then >= lo).
/// start - W needs no stream of its own: when start >= W it is lo.
/// Returns false when `visit` rejected a start.
template <typename Visit>
[[nodiscard]] bool for_each_window_start(const std::vector<Cycles>& times,
                                         Cycles start, Cycles end,
                                         Cycles window, Visit&& visit) {
  constexpr Cycles kNone = std::numeric_limits<Cycles>::max();
  const std::size_t n = times.size();
  const Cycles lo = times.front();
  std::size_t a = 0;
  std::size_t b = 0;
  while (b < n && times[b] < lo + window) ++b;
  Cycles start_pending = start < end ? start : kNone;
  Cycles end_pending = end >= window ? end - window : kNone;
  while (true) {
    const Cycles from_a = a < n && times[a] < end ? times[a] : kNone;
    const Cycles from_b = b < n ? times[b] - window : kNone;
    const Cycles w = std::min({from_a, start_pending, from_b, end_pending});
    if (w == kNone) return true;
    // Consume w from every stream that holds it: the de-duplication.
    if (from_a == w) ++a;
    if (start_pending == w) start_pending = kNone;
    if (from_b == w) ++b;
    if (end_pending == w) end_pending = kNone;
    if (!visit(w)) return false;
  }
}

class WindowedPowerProfile {
 public:
  /// `window` cycles, `limit` average power (both > 0; an unwindowed
  /// schedule never builds a WindowedPowerProfile).
  WindowedPowerProfile(Cycles window, double limit)
      : window_(window),
        budget_(limit * static_cast<double>(window)),
        // The peak budget's slack on the integral scale: the prefix
        // sums accumulate ~1 ulp of residue per segment.
        slack_(power_slack(budget_)) {
    check_invariant(window > 0 && limit > 0.0,
                    "power window needs a positive length and limit");
  }

  /// True when a single test of `power` over `duration` cycles can ever
  /// satisfy the window on an empty timeline.  Callers must pre-check
  /// this (like the peak budget's peak_test_power() gate) so the retry
  /// fixpoint is guaranteed to terminate.
  [[nodiscard]] bool admits_alone(double power, Cycles duration) const {
    return power * static_cast<double>(std::min(duration, window_)) <=
           budget_ + slack_;
  }

  /// True when every window overlapping [start, start+duration) of
  /// `load` stays within budget with a `power` load added over that
  /// span.  `drain_end` is the end of the timeline's last reservation,
  /// zero-power ones included.  On failure *retry_at is a strictly
  /// later start worth probing.  The check counts into `tally`.  Not
  /// const: the check builds its segment table in scratch buffers, so
  /// a warm check allocates nothing.
  [[nodiscard]] bool window_free(const Skyline<double>& load,
                                 Cycles drain_end, Cycles start,
                                 double power, Cycles duration,
                                 Cycles* retry_at, AdmissionTally& tally) {
    std::uint64_t visited = 0;
    const bool free = window_free_impl(load, drain_end, start, power,
                                       duration, retry_at, &visited);
    tally.count(free, visited);
    return free;
  }

 private:
  using const_iterator = Skyline<double>::const_iterator;

  bool window_free_impl(const Skyline<double>& load, Cycles drain_end,
                        Cycles start, double power, Cycles duration,
                        Cycles* retry_at, std::uint64_t* visited) {
    const Cycles lo = start >= window_ ? start - window_ : 0;
    const Cycles end = start + duration;  // exclusive window-start bound
    const Cycles span_end = end + window_;

    // Clipped segment table over [lo, span_end): breakpoint times,
    // levels, and the prefix integral of the EXISTING load from lo.
    std::vector<Cycles>& times = times_;
    std::vector<double>& levels = levels_;
    std::vector<double>& prefix = prefix_;
    times.clear();
    levels.clear();
    prefix.clear();
    const_iterator at = load.floor(lo);
    times.push_back(lo);
    levels.push_back(at == load.end() ? 0.0 : at->second);
    prefix.push_back(0.0);
    ++*visited;
    const_iterator it = at == load.end() ? load.begin() : std::next(at);
    for (; it != load.end() && it->first < span_end; ++it) {
      ++*visited;
      prefix.push_back(prefix.back() +
                       levels.back() *
                           static_cast<double>(it->first - times.back()));
      times.push_back(it->first);
      levels.push_back(it->second);
    }
    const std::size_t n = times.size();
    // Existing-load integral from lo to x, for x at or past the segment
    // under cursor *i (x < span_end).  Window starts ascend, so each of
    // the two cursors (window start, window end) only moves forward.
    const auto integral_to = [&](Cycles x, std::size_t* i) {
      while (*i + 1 < n && times[*i + 1] <= x) ++*i;
      return prefix[*i] + levels[*i] * static_cast<double>(x - times[*i]);
    };
    std::size_t at_w = 0;
    std::size_t at_w_end = 0;
    const bool fits = for_each_window_start(
        times, start, end, window_, [&](Cycles w) {
          const Cycles w_end = w + window_;
          const double existing =
              integral_to(w_end, &at_w_end) - integral_to(w, &at_w);
          const Cycles overlap_lo = std::max(w, start);
          const Cycles overlap_hi = std::min(w_end, end);
          const double added =
              overlap_hi > overlap_lo
                  ? power * static_cast<double>(overlap_hi - overlap_lo)
                  : 0.0;
          const bool over = existing + added > budget_ + slack_;
          return !over;
        });
    if (!fits) *retry_at = next_retry(load, drain_end, start, visited);
    return fits;
  }

  /// Strictly-later retry start: the next load breakpoint after
  /// `start`, or — once past every breakpoint — one full window past
  /// the drain, where no window mixes the candidate with old load and
  /// admits_alone() (pre-checked by the packer) guarantees admission.
  Cycles next_retry(const Skyline<double>& load, Cycles drain_end,
                    Cycles start, std::uint64_t* visited) const {
    const_iterator at = load.floor(start);
    const_iterator it = at == load.end() ? load.begin() : std::next(at);
    if (it != load.end()) {
      ++*visited;
      return it->first;
    }
    const Cycles clear = drain_end + window_;
    check_invariant(clear > start,
                    "windowed power budget never admits the test");
    return clear;
  }

  Cycles window_;
  double budget_;  ///< limit * window: the per-window integral cap.
  double slack_;
  // window_free's clipped segment table, kept between checks for its
  // capacity only.
  std::vector<Cycles> times_;
  std::vector<double> levels_;
  std::vector<double> prefix_;
};

}  // namespace msoc::tam
