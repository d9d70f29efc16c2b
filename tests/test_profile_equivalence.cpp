// Property tests pinning the skyline-backed capacity_free kernel (as
// the wire check and as the peak-power check) and PackTimeline's
// wires-only fixpoint to the historical delta-map implementations they
// replaced.  The reference classes below are verbatim ports of the
// pre-refactor code (prefix-sum walks over a +/- delta map, fixpoint
// advance over an unsorted blocked vector); the bit-identity claim in
// the refactor is that the coalescing structures return the SAME
// fit/no-fit answer and the SAME retry time on every query — which is
// what these tests check on randomized workloads.

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/common/rng.hpp"
#include "msoc/tam/interval_set.hpp"
#include "msoc/tam/pack_timeline.hpp"
#include "msoc/tam/skyline.hpp"
#include "msoc/tam/windowed_power.hpp"

namespace msoc::tam {
namespace {

using Interval = std::pair<Cycles, Cycles>;

/// The pre-refactor UsageProfile: sorted delta map, O(n) prefix-sum
/// admission walk, fixpoint over the raw blocked vector.
class ReferenceUsageProfile {
 public:
  explicit ReferenceUsageProfile(int capacity) : capacity_(capacity) {}

  [[nodiscard]] bool window_free(Cycles start, int width, Cycles duration,
                                 const std::vector<Interval>& blocked,
                                 Cycles* retry_at) const {
    Cycles clear = start;
    bool conflicted = false;
    for (bool moved = true; moved;) {
      moved = false;
      for (const auto& [b, e] : blocked) {
        if (clear < e && b < clear + duration) {
          clear = e;
          conflicted = true;
          moved = true;
        }
      }
    }
    if (conflicted) {
      *retry_at = clear;
      return false;
    }
    long long usage = 0;
    auto it = delta_.begin();
    for (; it != delta_.end() && it->first <= start; ++it) {
      usage += it->second;
    }
    if (usage + width > capacity_) {
      *retry_at = next_drop(it, usage, width);
      return false;
    }
    for (; it != delta_.end() && it->first < start + duration; ++it) {
      usage += it->second;
      if (usage + width > capacity_) {
        *retry_at = next_drop(std::next(it), usage, width);
        return false;
      }
    }
    return true;
  }

  [[nodiscard]] Cycles earliest_start(
      int width, Cycles duration, Cycles not_before,
      const std::vector<Interval>& blocked) const {
    Cycles candidate = not_before;
    while (true) {
      Cycles retry = 0;
      if (window_free(candidate, width, duration, blocked, &retry)) {
        return candidate;
      }
      check_invariant(retry > candidate, "packer failed to advance");
      candidate = retry;
    }
  }

  void reserve(Cycles start, Cycles duration, int width) {
    delta_[start] += width;
    delta_[start + duration] -= width;
  }

 private:
  Cycles next_drop(std::map<Cycles, long long>::const_iterator it,
                   long long usage, int width) const {
    for (; it != delta_.end(); ++it) {
      usage += it->second;
      if (usage + width <= capacity_) return it->first;
    }
    check_invariant(false, "TAM usage never drops below capacity");
    return 0;
  }

  int capacity_;
  std::map<Cycles, long long> delta_;
};

/// The pre-refactor PowerProfile: same walk with double loads.
class ReferencePowerProfile {
 public:
  explicit ReferencePowerProfile(double budget)
      : budget_(budget), slack_(1e-9 * (budget < 1.0 ? 1.0 : budget)) {}

  [[nodiscard]] bool window_free(Cycles start, double power, Cycles duration,
                                 Cycles* retry_at) const {
    double usage = 0.0;
    auto it = delta_.begin();
    for (; it != delta_.end() && it->first <= start; ++it) {
      usage += it->second;
    }
    if (!fits(usage, power)) {
      *retry_at = next_drop(it, usage, power);
      return false;
    }
    for (; it != delta_.end() && it->first < start + duration; ++it) {
      usage += it->second;
      if (!fits(usage, power)) {
        *retry_at = next_drop(std::next(it), usage, power);
        return false;
      }
    }
    return true;
  }

  void reserve(Cycles start, Cycles duration, double power) {
    delta_[start] += power;
    delta_[start + duration] -= power;
  }

 private:
  [[nodiscard]] bool fits(double usage, double power) const {
    return usage + power <= budget_ + slack_;
  }

  Cycles next_drop(std::map<Cycles, double>::const_iterator it, double usage,
                   double power) const {
    for (; it != delta_.end(); ++it) {
      usage += it->second;
      if (fits(usage, power)) return it->first;
    }
    check_invariant(false, "power usage never drops below the budget");
    return 0;
  }

  double budget_;
  double slack_;
  std::map<Cycles, double> delta_;
};

/// One wire probe the way PackTimeline makes it: the blocked union
/// first, then the wire kernel.
bool wires_free(const Skyline<long long>& wires, int capacity,
                const IntervalSet& blocked, Cycles start, int width,
                Cycles duration, Cycles* retry_at) {
  const Cycles clear = blocked.first_fit(start, duration);
  if (clear != start) {
    *retry_at = clear;
    return false;
  }
  AdmissionTally tally;
  return capacity_free(wires, capacity, start, width, duration, retry_at,
                       tally);
}

TEST(ProfileEquivalence, WireProfileMatchesDeltaMapOnRandomWorkloads) {
  Rng rng(20260808);
  for (int round = 0; round < 25; ++round) {
    const int capacity = rng.uniform_int(8, 32);
    Skyline<long long> skyline;
    ReferenceUsageProfile reference(capacity);

    // Interleave reservations and probes so the profiles are compared
    // in many intermediate states, not just the final one.
    for (int op = 0; op < 120; ++op) {
      if (rng.uniform_int(0, 2) == 0) {
        const Cycles start = rng.uniform_u64(0, 500);
        const Cycles duration = rng.uniform_u64(1, 80);
        const int width = rng.uniform_int(1, capacity);
        skyline.add(start, start + duration, width);
        reference.reserve(start, duration, width);
        continue;
      }
      const Cycles start = rng.uniform_u64(0, 600);
      const Cycles duration = rng.uniform_u64(1, 80);
      const int width = rng.uniform_int(1, capacity);
      Cycles new_retry = 0;
      Cycles old_retry = 0;
      AdmissionTally tally;
      const bool new_free = capacity_free(skyline, capacity, start, width,
                                          duration, &new_retry, tally);
      const bool old_free =
          reference.window_free(start, width, duration, {}, &old_retry);
      ASSERT_EQ(new_free, old_free)
          << "round=" << round << " start=" << start << " w=" << width
          << " d=" << duration;
      if (!new_free) {
        ASSERT_EQ(new_retry, old_retry)
            << "round=" << round << " start=" << start << " w=" << width
            << " d=" << duration;
      }
    }
  }
}

TEST(ProfileEquivalence, BlockedWindowsMatchTheHistoricalFixpoint) {
  Rng rng(31337);
  for (int round = 0; round < 25; ++round) {
    const int capacity = rng.uniform_int(4, 16);
    Skyline<long long> skyline;
    PackTimeline timeline(capacity);
    ReferenceUsageProfile reference(capacity);
    for (int i = 0; i < 15; ++i) {
      const Cycles start = rng.uniform_u64(0, 300);
      const Cycles duration = rng.uniform_u64(1, 60);
      const int width = rng.uniform_int(1, capacity);
      skyline.add(start, start + duration, width);
      timeline.reserve(start, duration, width, 0.0);
      reference.reserve(start, duration, width);
    }
    // Blocked intervals arrive unsorted and overlapping, exactly as the
    // analog serialization loop produces them.
    std::vector<Interval> raw;
    IntervalSet merged;
    const int n = rng.uniform_int(0, 12);
    for (int i = 0; i < n; ++i) {
      const Cycles start = rng.uniform_u64(0, 400);
      const Cycles len = rng.uniform_u64(1, 70);
      raw.emplace_back(start, start + len);
      merged.insert(start, start + len);
    }
    for (int probe = 0; probe < 60; ++probe) {
      const Cycles start = rng.uniform_u64(0, 500);
      const Cycles duration = rng.uniform_u64(1, 90);
      const int width = rng.uniform_int(1, capacity);
      Cycles new_retry = 0;
      Cycles old_retry = 0;
      const bool new_free = wires_free(skyline, capacity, merged, start,
                                       width, duration, &new_retry);
      const bool old_free =
          reference.window_free(start, width, duration, raw, &old_retry);
      ASSERT_EQ(new_free, old_free)
          << "round=" << round << " start=" << start << " d=" << duration;
      if (!new_free) {
        ASSERT_EQ(new_retry, old_retry);
      }
      ASSERT_EQ(timeline.earliest_feasible(width, 0.0, duration, merged, start),
                reference.earliest_start(width, duration, start, raw));
    }
  }
}

TEST(ProfileEquivalence, PeakProfileMatchesDeltaMapOnDyadicLoads) {
  // Loads that are multiples of 0.25 accumulate exactly in double, so
  // the skyline and the prefix-sum walk agree bit-for-bit — decisions
  // AND retry times.
  Rng rng(555);
  for (int round = 0; round < 25; ++round) {
    const double budget = 0.25 * rng.uniform_int(8, 64);
    const double ceiling = budget + power_slack(budget);
    Skyline<double> skyline;
    ReferencePowerProfile reference(budget);
    for (int op = 0; op < 120; ++op) {
      const double power = 0.25 * rng.uniform_int(1, 32);
      if (rng.uniform_int(0, 2) == 0 && power <= budget) {
        const Cycles start = rng.uniform_u64(0, 500);
        const Cycles duration = rng.uniform_u64(1, 80);
        skyline.add(start, start + duration, power);
        reference.reserve(start, duration, power);
        continue;
      }
      if (power > budget) continue;
      const Cycles start = rng.uniform_u64(0, 600);
      const Cycles duration = rng.uniform_u64(1, 80);
      Cycles new_retry = 0;
      Cycles old_retry = 0;
      AdmissionTally tally;
      const bool new_free = capacity_free(skyline, ceiling, start, power,
                                          duration, &new_retry, tally);
      const bool old_free =
          reference.window_free(start, power, duration, &old_retry);
      ASSERT_EQ(new_free, old_free)
          << "round=" << round << " start=" << start << " p=" << power;
      if (!new_free) {
        ASSERT_EQ(new_retry, old_retry);
      }
    }
  }
}

TEST(ProfileEquivalence, PeakProfileMatchesDeltaMapOnArbitraryLoads) {
  // Arbitrary doubles: reassociation can shift levels by ulps, but the
  // slack absorbs that on both sides, so with a fixed seed the answers
  // still agree (random loads never land within an ulp of the budget).
  Rng rng(777);
  for (int round = 0; round < 15; ++round) {
    const double budget = rng.uniform(5.0, 50.0);
    const double ceiling = budget + power_slack(budget);
    Skyline<double> skyline;
    ReferencePowerProfile reference(budget);
    for (int op = 0; op < 100; ++op) {
      const double power = rng.uniform(0.1, budget);
      if (rng.uniform_int(0, 2) == 0) {
        const Cycles start = rng.uniform_u64(0, 400);
        const Cycles duration = rng.uniform_u64(1, 60);
        skyline.add(start, start + duration, power);
        reference.reserve(start, duration, power);
        continue;
      }
      const Cycles start = rng.uniform_u64(0, 500);
      const Cycles duration = rng.uniform_u64(1, 60);
      Cycles new_retry = 0;
      Cycles old_retry = 0;
      AdmissionTally tally;
      const bool new_free = capacity_free(skyline, ceiling, start, power,
                                          duration, &new_retry, tally);
      const bool old_free =
          reference.window_free(start, power, duration, &old_retry);
      ASSERT_EQ(new_free, old_free)
          << "round=" << round << " start=" << start << " p=" << power;
      if (!new_free) {
        ASSERT_EQ(new_retry, old_retry);
      }
    }
  }
}

}  // namespace
}  // namespace msoc::tam
