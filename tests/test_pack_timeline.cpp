// Property tests for PackTimeline::earliest_feasible, the packer's
// placement fixpoint over the blocked set, the wire skyline and the
// peak-power and windowed-power checks over the power skyline.
//
// Without a window the fixpoint is checked for exactness against a
// per-cycle brute-force scan: the returned start is the smallest start
// >= not_before at which the test avoids every blocked interval and
// keeps wires and instantaneous power within capacity on every cycle.
// Integer-valued powers keep the brute force exact, so the check needs
// no tolerance.  With a window active only soundness is asserted: the
// schedule with the test added must pass check_schedule.  A last test
// counts heap allocations: warm admission checks must make none.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "msoc/common/rng.hpp"
#include "msoc/tam/interval_set.hpp"
#include "msoc/tam/pack_timeline.hpp"
#include "msoc/tam/schedule.hpp"
#include "msoc/tam/windowed_power.hpp"

namespace {
/// Every operator new in this test binary.
std::atomic<std::uint64_t> allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// GCC inlines these replacements into std::allocator call sites and
// then reports the malloc/free pair as a new/delete mismatch.  A
// replacement operator new may allocate with malloc, so the pair is
// correct and the warning is a false positive here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace msoc::tam {
namespace {

struct Rect {
  Cycles start = 0;
  Cycles duration = 0;
  int width = 0;
  int power = 0;
};

using Interval = std::pair<Cycles, Cycles>;

/// The first start >= not_before at which a (width, power, duration)
/// test avoids `blocked` and keeps wires <= tam_width and (when
/// max_power > 0) power <= max_power on every cycle it covers.
Cycles brute_force_start(const std::vector<Rect>& placed,
                         const std::vector<Interval>& blocked, int tam_width,
                         int max_power, int width, int power,
                         Cycles duration, Cycles not_before) {
  Cycles horizon = not_before;
  for (const Rect& r : placed) {
    horizon = std::max(horizon, r.start + r.duration);
  }
  for (const Interval& b : blocked) horizon = std::max(horizon, b.second);
  // Past the horizon every cycle is free, so the scan ends there.
  const std::size_t cycles = static_cast<std::size_t>(horizon + duration);
  std::vector<long long> wires(cycles, 0);
  std::vector<long long> watts(cycles, 0);
  std::vector<bool> busy(cycles, false);
  for (const Rect& r : placed) {
    for (Cycles t = r.start; t < r.start + r.duration; ++t) {
      wires[t] += r.width;
      watts[t] += r.power;
    }
  }
  for (const Interval& b : blocked) {
    for (Cycles t = b.first; t < b.second; ++t) busy[t] = true;
  }
  const auto admits = [&](Cycles t) {
    return !busy[t] && wires[t] + width <= tam_width &&
           (max_power <= 0 || watts[t] + power <= max_power);
  };
  for (Cycles s = not_before;; ++s) {
    bool ok = true;
    for (Cycles t = s; ok && t < s + duration; ++t) ok = admits(t);
    if (ok) return s;
  }
}

TEST(PackTimelineProperty, EarliestFeasibleIsTheBruteForceMinimum) {
  Rng rng(20261017);
  for (int round = 0; round < 300; ++round) {
    const int tam_width = rng.uniform_int(2, 10);
    // Every other round leaves the peak axis unconstrained.
    const int max_power = round % 2 == 0 ? 0 : rng.uniform_int(5, 30);
    PackTimeline timeline(tam_width, max_power);
    std::vector<Rect> placed;
    // Reservations land anywhere — they need not be admissible
    // themselves; the kernels only compare levels against capacity.
    const int reservations = rng.uniform_int(0, 10);
    for (int i = 0; i < reservations; ++i) {
      Rect r;
      r.start = rng.uniform_u64(0, 120);
      r.duration = rng.uniform_u64(1, 40);
      r.width = rng.uniform_int(1, tam_width);
      r.power = rng.uniform_int(0, std::max(1, max_power));
      timeline.reserve(r.start, r.duration, r.width, r.power);
      placed.push_back(r);
    }
    std::vector<Interval> raw;
    IntervalSet blocked;
    const int intervals = rng.uniform_int(0, 4);
    for (int i = 0; i < intervals; ++i) {
      const Cycles start = rng.uniform_u64(0, 150);
      const Cycles end = start + rng.uniform_u64(1, 30);
      raw.emplace_back(start, end);
      blocked.insert(start, end);
    }
    for (int probe = 0; probe < 8; ++probe) {
      const int width = rng.uniform_int(1, tam_width);
      const int power = max_power > 0 ? rng.uniform_int(0, max_power)
                                      : rng.uniform_int(0, 50);
      const Cycles duration = rng.uniform_u64(1, 40);
      const Cycles not_before = rng.uniform_u64(0, 160);
      ASSERT_EQ(timeline.earliest_feasible(width, power, duration, blocked,
                                           not_before),
                brute_force_start(placed, raw, tam_width, max_power, width,
                                  power, duration, not_before))
          << "round=" << round << " W=" << tam_width << " P=" << max_power
          << " w=" << width << " p=" << power << " d=" << duration
          << " from=" << not_before;
    }
  }
}

TEST(PackTimelineProperty, WindowedPlacementsPassCheckSchedule) {
  Rng rng(4242);
  for (int round = 0; round < 200; ++round) {
    Schedule schedule;
    schedule.tam_width = rng.uniform_int(2, 10);
    schedule.max_power = round % 3 == 0 ? 0.0 : rng.uniform_int(8, 30);
    schedule.window_cycles = rng.uniform_u64(5, 40);
    schedule.window_limit = rng.uniform_int(2, 12);
    const soc::PowerWindow window{schedule.window_cycles,
                                  schedule.window_limit};
    const WindowedPowerProfile probe(window.cycles, window.limit);
    PackTimeline timeline(schedule.tam_width, schedule.max_power, window);
    // Analog tests share one wrapper, so they serialize against each
    // other through the blocked set.
    IntervalSet wrapper_busy;
    const int tests = rng.uniform_int(1, 14);
    for (int i = 0; i < tests; ++i) {
      ScheduledTest t;
      t.width = rng.uniform_int(1, schedule.tam_width);
      t.duration = rng.uniform_u64(1, 50);
      t.power = rng.uniform_int(0, 12);
      if (schedule.max_power > 0.0) {
        t.power = std::min(t.power, schedule.max_power);
      }
      // The packer's pre-check: a test the window can never admit is
      // rejected before it reaches the fixpoint.
      if (!probe.admits_alone(t.power, t.duration)) continue;
      const bool analog = rng.uniform_int(0, 2) == 0;
      const Cycles not_before = rng.uniform_u64(0, 60);
      const IntervalSet no_blocks;
      t.start = timeline.earliest_feasible(t.width, t.power, t.duration,
                                           analog ? wrapper_busy : no_blocks,
                                           not_before);
      ASSERT_GE(t.start, not_before);
      timeline.reserve(t.start, t.duration, t.width, t.power);
      t.core_name = "t" + std::to_string(i);
      if (analog) {
        t.kind = TestKind::kAnalog;
        t.wrapper_group = 0;
        wrapper_busy.insert(t.start, t.end());
      }
      schedule.tests.push_back(t);
      const std::vector<ScheduleViolation> violations =
          check_schedule(schedule);
      ASSERT_TRUE(violations.empty())
          << "round=" << round << " test=" << i << ": "
          << violations.front().message;
    }
  }
}

TEST(PackTimelineAllocation, WarmAdmissionChecksAllocateNothing) {
  // The scale ladder's shape: 64 wires, a peak budget and a 4096-cycle
  // window.  Reservations may allocate; once the window check's scratch
  // buffers have grown, the probes themselves must not.
  Rng rng(77);
  PackTimeline timeline(64, 30.0, {4096, 18.0});
  const IntervalSet none;
  for (int i = 0; i < 200; ++i) {
    const int width = rng.uniform_int(1, 16);
    const double power = rng.uniform_int(1, 10);
    const Cycles duration = rng.uniform_u64(200, 4000);
    timeline.reserve(timeline.earliest_feasible(width, power, duration, none),
                     duration, width, power);
  }
  const auto probe_all = [&timeline, &none] {
    Cycles sum = 0;
    for (Cycles s = 0; s < 400000; s += 997) {
      sum += timeline.earliest_feasible(8, 5.0, 2048, none, s);
    }
    return sum;
  };
  const Cycles warm = probe_all();
  const std::uint64_t before = allocations.load();
  const Cycles again = probe_all();
  EXPECT_EQ(allocations.load() - before, 0u);
  EXPECT_EQ(again, warm);
}

}  // namespace
}  // namespace msoc::tam
