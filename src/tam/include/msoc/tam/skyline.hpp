#pragma once
// Piecewise-constant load envelope ("skyline") over the schedule
// timeline: one flat vector of (segment-start, level) pairs sorted by
// start, coalesced so no segment repeats its predecessor's level.  The
// level before the first segment is Load{}; the last segment's level
// extends to infinity and — because reservations are finite — is always
// Load{} once everything drains.
//
// This replaces the delta-map (time -> +/- load) the packer used to
// keep: a delta map answers "load at t" only by summing every delta from
// the beginning (O(n) per admission probe), while the skyline answers it
// with one binary search (O(log n)) and walks only the segments a
// window actually crosses — contiguously, which is what the admission
// kernels spend their time doing.  An add() shifts the tail of the
// vector for at most two new and two coalesced boundaries; the packer
// probes far more often than it reserves, so the flat layout wins over
// a node-based map.  Levels are maintained incrementally on insert, so
// for integer loads they are bit-identical to the delta-map prefix
// sums; for floating-point loads they differ by at most the usual
// reassociation ulps, which the power checks' slack (power_slack)
// already absorbs.

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/common/units.hpp"

namespace msoc::tam {

template <typename Load>
class Skyline {
 public:
  using Segment = std::pair<Cycles, Load>;  ///< (start, level).
  using const_iterator = typename std::vector<Segment>::const_iterator;

  /// Adds `amount` of load over [start, end).  O(log n + segments the
  /// range crosses + the tail shifted by new or coalesced boundaries).
  void add(Cycles start, Cycles end, Load amount) {
    check_invariant(start < end, "skyline segment must be non-empty");
    // `start` first: its insertion sits before `end`'s, so neither
    // index moves under the other.
    const std::size_t lo = boundary(start);  // copies the level at start
    const std::size_t hi = boundary(end);    // keeps the pre-add level
    for (std::size_t i = lo; i < hi; ++i) level_[i].second += amount;
    // Adding one amount across the whole range preserves every interior
    // level difference; only the two edges can newly equal a neighbor.
    // `hi` first, so erasing it leaves `lo` in place.
    coalesce(hi);
    coalesce(lo);
  }

  /// Level at time t: the segment containing t, or Load{} before the
  /// first segment.  O(log n).
  [[nodiscard]] Load level_at(Cycles t) const {
    const const_iterator it = floor(t);
    return it == level_.end() ? Load{} : it->second;
  }

  /// Last segment starting at or before t; end() when t precedes every
  /// segment (implicit Load{} level).
  [[nodiscard]] const_iterator floor(Cycles t) const {
    const auto it = std::upper_bound(
        level_.begin(), level_.end(), t,
        [](Cycles time, const Segment& segment) {
          return time < segment.first;
        });
    if (it == level_.begin()) return level_.end();
    return std::prev(it);
  }

  [[nodiscard]] bool empty() const noexcept { return level_.empty(); }
  [[nodiscard]] std::size_t segment_count() const noexcept {
    return level_.size();
  }
  [[nodiscard]] const_iterator begin() const noexcept {
    return level_.begin();
  }
  [[nodiscard]] const_iterator end() const noexcept { return level_.end(); }

  /// Highest level over the whole timeline (Load{} when empty).
  [[nodiscard]] Load peak() const {
    Load peak{};
    for (const auto& [start, level] : level_) {
      if (level > peak) peak = level;
    }
    return peak;
  }

 private:
  /// Index of the segment starting exactly at t, creating it (with the
  /// level already reaching t) when absent.
  std::size_t boundary(Cycles t) {
    const auto it = std::lower_bound(
        level_.begin(), level_.end(), t,
        [](const Segment& segment, Cycles time) {
          return segment.first < time;
        });
    const auto index = static_cast<std::size_t>(it - level_.begin());
    if (it != level_.end() && it->first == t) return index;
    const Load level = index == 0 ? Load{} : level_[index - 1].second;
    level_.emplace(it, t, level);
    return index;
  }

  /// Erases segment `i` when it no longer changes the level.
  void coalesce(std::size_t i) {
    if (i >= level_.size()) return;
    const Load prev_level = i == 0 ? Load{} : level_[i - 1].second;
    if (level_[i].second == prev_level) {
      level_.erase(level_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  std::vector<Segment> level_;
};

}  // namespace msoc::tam
