// Property tests pinning the flat admission kernels to the ones they
// replaced: the vector-backed Skyline against the std::map Skyline, and
// WindowedPowerProfile's merge-walk window scan against the sort-based
// scan.  The reference classes below are verbatim ports of the previous
// code.  The claim is bit-identity — the SAME segment list and levels
// after every add, the SAME floor, and for every admission check the
// SAME fit decision, retry time and skyline segments visited — on
// seeded random timelines covering duplicate breakpoints, starts inside
// the first window, candidates ending before one window, durations
// longer than the window, and dyadic and arbitrary powers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/common/rng.hpp"
#include "msoc/tam/capacity_profile.hpp"
#include "msoc/tam/counters.hpp"
#include "msoc/tam/skyline.hpp"
#include "msoc/tam/windowed_power.hpp"

namespace msoc::tam {
namespace {

/// The previous Skyline: an ordered map segment-start -> level.
template <typename Load>
class MapSkyline {
 public:
  using Map = std::map<Cycles, Load>;
  using const_iterator = typename Map::const_iterator;

  void add(Cycles start, Cycles end, Load amount) {
    check_invariant(start < end, "skyline segment must be non-empty");
    auto hi = boundary(end);    // keeps the pre-add level past `end`
    auto lo = boundary(start);  // copies the level reaching `start`
    for (auto it = lo; it != hi; ++it) it->second += amount;
    coalesce(hi);
    coalesce(lo);
  }

  [[nodiscard]] const_iterator floor(Cycles t) const {
    auto it = level_.upper_bound(t);
    if (it == level_.begin()) return level_.end();
    return std::prev(it);
  }

  [[nodiscard]] const_iterator begin() const noexcept {
    return level_.begin();
  }
  [[nodiscard]] const_iterator end() const noexcept { return level_.end(); }

 private:
  using iterator = typename Map::iterator;

  iterator boundary(Cycles t) {
    auto it = level_.lower_bound(t);
    if (it != level_.end() && it->first == t) return it;
    const Load level =
        it == level_.begin() ? Load{} : std::prev(it)->second;
    return level_.emplace_hint(it, t, level);
  }

  void coalesce(iterator it) {
    if (it == level_.end()) return;
    const Load prev_level =
        it == level_.begin() ? Load{} : std::prev(it)->second;
    if (it->second == prev_level) level_.erase(it);
  }

  Map level_;
};

/// The previous window scan: candidate starts pushed unsorted, then
/// std::sort + std::unique, each window's integral found by two
/// upper_bound calls.
class SortedWindowOracle {
 public:
  SortedWindowOracle(Cycles window, double limit)
      : window_(window),
        budget_(limit * static_cast<double>(window)),
        slack_(power_slack(budget_)) {}

  bool window_free(Cycles start, double power, Cycles duration,
                   Cycles* retry_at, std::uint64_t* visited) const {
    const Cycles lo = start >= window_ ? start - window_ : 0;
    const Cycles end = start + duration;  // exclusive window-start bound
    const Cycles span_end = end + window_;

    std::vector<Cycles> times;
    std::vector<double> levels;
    std::vector<double> prefix;
    const_iterator at = load_.floor(lo);
    times.push_back(lo);
    levels.push_back(at == load_.end() ? 0.0 : at->second);
    prefix.push_back(0.0);
    ++*visited;
    const_iterator it = at == load_.end() ? load_.begin() : std::next(at);
    for (; it != load_.end() && it->first < span_end; ++it) {
      ++*visited;
      prefix.push_back(prefix.back() +
                       levels.back() *
                           static_cast<double>(it->first - times.back()));
      times.push_back(it->first);
      levels.push_back(it->second);
    }
    const auto integral_to = [&](Cycles x) {
      const auto seg = std::upper_bound(times.begin(), times.end(), x);
      const std::size_t i =
          static_cast<std::size_t>(seg - times.begin()) - 1;
      return prefix[i] + levels[i] * static_cast<double>(x - times[i]);
    };

    const std::vector<Cycles> starts =
        sorted_window_starts(times, start, end, window_);
    for (const Cycles w : starts) {
      const Cycles w_end = w + window_;
      const double existing = integral_to(w_end) - integral_to(w);
      const Cycles overlap_lo = std::max(w, start);
      const Cycles overlap_hi = std::min(w_end, end);
      const double added =
          overlap_hi > overlap_lo
              ? power * static_cast<double>(overlap_hi - overlap_lo)
              : 0.0;
      if (existing + added > budget_ + slack_) {
        *retry_at = next_retry(start, visited);
        return false;
      }
    }
    return true;
  }

  void reserve(Cycles start, Cycles duration, double power) {
    load_.add(start, start + duration, power);
    drain_end_ = std::max(drain_end_, start + duration);
  }

  /// The previous candidate set: every breakpoint as a window start
  /// and as a window end, clamped into [lo, end), sorted and unique.
  static std::vector<Cycles> sorted_window_starts(
      const std::vector<Cycles>& times, Cycles start, Cycles end,
      Cycles window) {
    const Cycles lo = start >= window ? start - window : 0;
    std::vector<Cycles> starts;
    const auto push = [&](Cycles w) {
      if (w >= lo && w < end) starts.push_back(w);
    };
    push(lo);
    const auto push_edges = [&](Cycles t) {
      push(t);
      if (t >= window) push(t - window);
    };
    for (const Cycles t : times) push_edges(t);
    push_edges(start);
    push_edges(end);
    std::sort(starts.begin(), starts.end());
    starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
    return starts;
  }

 private:
  using const_iterator = MapSkyline<double>::const_iterator;

  Cycles next_retry(Cycles start, std::uint64_t* visited) const {
    const_iterator at = load_.floor(start);
    const_iterator it = at == load_.end() ? load_.begin() : std::next(at);
    if (it != load_.end()) {
      ++*visited;
      return it->first;
    }
    const Cycles clear = drain_end_ + window_;
    check_invariant(clear > start,
                    "windowed power budget never admits the test");
    return clear;
  }

  Cycles window_;
  double budget_;
  double slack_;
  Cycles drain_end_ = 0;
  MapSkyline<double> load_;
};

/// Bit pattern of a level: == would equate 0.0 and -0.0.
std::uint64_t bits(double v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof out);
  return out;
}
std::uint64_t bits(long long v) { return static_cast<std::uint64_t>(v); }

template <typename Load>
void expect_same_segments(const Skyline<Load>& flat,
                          const MapSkyline<Load>& map, int step) {
  ASSERT_EQ(flat.segment_count(),
            static_cast<std::size_t>(std::distance(map.begin(), map.end())))
      << "step " << step;
  auto it = map.begin();
  for (const auto& [start, level] : flat) {
    ASSERT_EQ(start, it->first) << "step " << step;
    ASSERT_EQ(bits(level), bits(it->second))
        << "step " << step << " segment " << start;
    ++it;
  }
}

template <typename Load>
void expect_same_floor(const Skyline<Load>& flat, const MapSkyline<Load>& map,
                       Cycles t) {
  const auto f = flat.floor(t);
  const auto m = map.floor(t);
  ASSERT_EQ(f == flat.end(), m == map.end()) << "t=" << t;
  if (f == flat.end()) return;
  ASSERT_EQ(f->first, m->first) << "t=" << t;
  ASSERT_EQ(bits(f->second), bits(m->second)) << "t=" << t;
  ASSERT_EQ(bits(flat.level_at(t)), bits(m->second)) << "t=" << t;
}

/// Random adds on a `grid`-cycle lattice (a coarse grid makes repeated
/// and shared breakpoints the common case); `draw` picks the amount.
template <typename Load, typename Draw>
void race_skylines(std::uint64_t seed, Cycles grid, Draw draw) {
  Rng rng(seed);
  for (int round = 0; round < 20; ++round) {
    Skyline<Load> flat;
    MapSkyline<Load> map;
    for (int step = 0; step < 80; ++step) {
      const Cycles start = grid * rng.uniform_u64(0, 40);
      const Cycles end = start + grid * rng.uniform_u64(1, 12);
      const Load amount = draw(rng);
      flat.add(start, end, amount);
      map.add(start, end, amount);
      expect_same_segments(flat, map, step);
      for (int probe = 0; probe < 8; ++probe) {
        expect_same_floor(flat, map, rng.uniform_u64(0, grid * 60));
      }
    }
  }
}

TEST(FlatSkylineOracle, IntegerLevelsAndFloorsMatchTheMapSkyline) {
  race_skylines<long long>(101, 5, [](Rng& rng) {
    return static_cast<long long>(rng.uniform_int(1, 16));
  });
  // Unit grid: adjacent adds that coalesce at both edges.
  race_skylines<long long>(102, 1, [](Rng& rng) {
    return static_cast<long long>(rng.uniform_int(1, 3));
  });
}

TEST(FlatSkylineOracle, DyadicLevelsMatchTheMapSkyline) {
  race_skylines<double>(103, 4, [](Rng& rng) {
    return 0.25 * rng.uniform_int(1, 40);
  });
}

TEST(FlatSkylineOracle, ArbitraryLevelsMatchTheMapSkylineBitForBit) {
  race_skylines<double>(104, 3, [](Rng& rng) {
    return rng.uniform(0.01, 30.0);
  });
}

TEST(FlatSkylineOracle, EmptyAndSingleSegmentFloors) {
  Skyline<long long> flat;
  MapSkyline<long long> map;
  expect_same_floor(flat, map, 0);
  flat.add(10, 20, 3);
  map.add(10, 20, 3);
  for (const Cycles t : {0u, 9u, 10u, 19u, 20u, 1000u}) {
    expect_same_floor(flat, map, t);
  }
}

/// Strictly ascending clipped table the window scan builds for a
/// candidate at `start`: lo first, then breakpoints below end + W.
std::vector<Cycles> random_table(Rng& rng, Cycles start, Cycles end,
                                 Cycles window, Cycles grid) {
  const Cycles lo = start >= window ? start - window : 0;
  std::vector<Cycles> times{lo};
  Cycles t = lo;
  while (true) {
    t += grid * rng.uniform_u64(1, 6);
    if (t >= end + window) break;
    times.push_back(t);
  }
  return times;
}

TEST(WindowStartMerge, VisitsTheSortedUniqueCandidateSet) {
  Rng rng(2024);
  for (int round = 0; round < 4000; ++round) {
    const Cycles window = rng.uniform_u64(1, 60);
    // Starts inside the first window, durations around W: start < W,
    // end < W (so end - W lies below lo), duration > W.
    const Cycles start = rng.uniform_u64(0, 3 * window);
    const Cycles duration = rng.uniform_u64(1, 3 * window);
    const Cycles end = start + duration;
    // A grid that is a divisor or multiple of W lines breakpoints up
    // with their own shifted copies (duplicate candidates).
    const Cycles grid =
        rng.uniform_int(0, 1) == 0 ? 1 : std::max<Cycles>(1, window / 2);
    const std::vector<Cycles> times =
        random_table(rng, start, end, window, grid);
    std::vector<Cycles> walked;
    const bool complete = for_each_window_start(
        times, start, end, window, [&](Cycles w) {
          walked.push_back(w);
          return true;
        });
    ASSERT_TRUE(complete);
    ASSERT_EQ(walked, SortedWindowOracle::sorted_window_starts(
                          times, start, end, window))
        << "round " << round << " W=" << window << " start=" << start
        << " end=" << end;
  }
}

TEST(WindowStartMerge, StopsAtTheFirstRejectedStart) {
  const std::vector<Cycles> times{0, 4, 9, 15};
  std::vector<Cycles> walked;
  const bool complete = for_each_window_start(
      times, 2, 12, 10, [&](Cycles w) {
        walked.push_back(w);
        return w < 4;
      });
  EXPECT_FALSE(complete);
  EXPECT_EQ(walked, (std::vector<Cycles>{0, 2, 4}));
}

/// Races WindowedPowerProfile against SortedWindowOracle: identical
/// reservations, and on every probe the same decision, retry time and
/// segments visited.  `draw_power` picks loads no larger than `limit`,
/// so every test admits alone and a retry always exists.
template <typename DrawPower>
void race_window_kernels(std::uint64_t seed, Cycles window, double limit,
                         Cycles grid, DrawPower draw_power) {
  Rng rng(seed);
  for (int round = 0; round < 12; ++round) {
    WindowedPowerProfile flat(window, limit);
    SortedWindowOracle oracle(window, limit);
    const Cycles horizon = window * 8;
    for (int op = 0; op < 150; ++op) {
      const Cycles start = grid * rng.uniform_u64(0, horizon / grid);
      // Mostly shorter than the window, sometimes much longer.
      const Cycles duration =
          rng.uniform_int(0, 4) == 0
              ? rng.uniform_u64(window + 1, 3 * window)
              : grid * rng.uniform_u64(1, std::max<Cycles>(1, window / grid));
      const double power = draw_power(rng);
      if (rng.uniform_int(0, 2) == 0) {
        flat.reserve(start, duration, power);
        oracle.reserve(start, duration, power);
        continue;
      }
      AdmissionTally tally;
      Cycles flat_retry = 0;
      Cycles oracle_retry = 0;
      std::uint64_t oracle_visited = 0;
      const bool flat_free =
          flat.window_free(start, power, duration, &flat_retry, tally);
      const bool oracle_free = oracle.window_free(
          start, power, duration, &oracle_retry, &oracle_visited);
      ASSERT_EQ(flat_free, oracle_free)
          << "round=" << round << " op=" << op << " start=" << start
          << " d=" << duration << " p=" << power;
      ASSERT_EQ(tally.visited, oracle_visited)
          << "round=" << round << " op=" << op;
      ASSERT_EQ(tally.checks, 1u);
      ASSERT_EQ(tally.retries, flat_free ? 0u : 1u);
      if (!flat_free) {
        ASSERT_EQ(flat_retry, oracle_retry)
            << "round=" << round << " op=" << op;
      }
    }
  }
}

TEST(WindowKernelOracle, DyadicPowersMatchTheSortedScan) {
  race_window_kernels(7001, 64, 6.0, 8, [](Rng& rng) {
    return 0.5 * rng.uniform_int(1, 12);
  });
}

TEST(WindowKernelOracle, ArbitraryPowersMatchTheSortedScan) {
  race_window_kernels(7002, 50, 4.5, 1, [](Rng& rng) {
    return rng.uniform(0.1, 4.5);
  });
}

TEST(WindowKernelOracle, DuplicateBreakpointsOnAWindowAlignedGrid) {
  // Every breakpoint sits on a multiple of W/4, so t and t - W collide
  // with each other, with lo, with start and with end - W.
  race_window_kernels(7003, 32, 5.0, 8, [](Rng& rng) {
    return 1.0 * rng.uniform_int(1, 5);
  });
}

TEST(WindowKernelOracle, ShortWindowsAgainstLongTests) {
  // Small W: most probes have start >= W and durations several windows
  // long; retries often fall back to one window past the drain.
  race_window_kernels(7004, 5, 10.0, 1, [](Rng& rng) {
    return rng.uniform(1.0, 10.0);
  });
}

}  // namespace
}  // namespace msoc::tam
