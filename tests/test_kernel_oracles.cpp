// Property tests pinning the flat admission kernels to the ones they
// replaced: the vector-backed Skyline against the std::map Skyline,
// WindowedPowerProfile's merge-walk window scan against the sort-based
// scan, and PackTimeline (one skyline per resource) against the
// timeline of three profiles that kept the power envelope twice.  The
// reference classes below are verbatim ports of the previous code.  The
// claim is bit-identity — the SAME segment list and levels after every
// add, the SAME floor, for every admission check the SAME fit decision,
// retry time and skyline segments visited, and for every timeline probe
// the SAME start and counters — on seeded random timelines covering
// duplicate breakpoints, starts inside the first window, candidates
// ending before one window, durations longer than the window, dyadic
// and arbitrary powers, zero-power tests and blocked sets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/common/rng.hpp"
#include "msoc/soc/soc.hpp"
#include "msoc/tam/counters.hpp"
#include "msoc/tam/interval_set.hpp"
#include "msoc/tam/pack_timeline.hpp"
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
    Skyline<double> load;
    Cycles drain_end = 0;
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
        load.add(start, start + duration, power);
        drain_end = std::max(drain_end, start + duration);
        oracle.reserve(start, duration, power);
        continue;
      }
      AdmissionTally tally;
      Cycles flat_retry = 0;
      Cycles oracle_retry = 0;
      std::uint64_t oracle_visited = 0;
      const bool flat_free = flat.window_free(load, drain_end, start, power,
                                              duration, &flat_retry, tally);
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

// --- The previous PackTimeline: three profiles, two power skylines. ---

/// The previous capacity kernel: a Skyline plus a capacity and a slack.
template <typename Load>
class ParentCapacityProfile {
 public:
  using const_iterator = typename Skyline<Load>::const_iterator;

  explicit ParentCapacityProfile(Load capacity, Load slack = Load{})
      : capacity_(capacity), slack_(slack) {
    check_invariant(capacity > Load{}, "profile capacity must be positive");
  }

  [[nodiscard]] bool window_free(Cycles start, Load load, Cycles duration,
                                 Cycles* retry_at,
                                 AdmissionTally& tally) const {
    std::uint64_t visited = 0;
    const bool free =
        window_free_impl(start, load, duration, retry_at, &visited);
    tally.count(free, visited);
    return free;
  }

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

/// The previous sliding-window profile, owning its own power skyline
/// and drain horizon.
class ParentWindowedProfile {
 public:
  ParentWindowedProfile(Cycles window, double limit)
      : window_(window),
        limit_(limit),
        budget_(limit * static_cast<double>(window)),
        slack_(power_slack(budget_)) {
    check_invariant(window > 0 && limit > 0.0,
                    "power window needs a positive length and limit");
  }

  [[nodiscard]] bool window_free(Cycles start, double power, Cycles duration,
                                 Cycles* retry_at, AdmissionTally& tally) {
    std::uint64_t visited = 0;
    const bool free =
        window_free_impl(start, power, duration, retry_at, &visited);
    tally.count(free, visited);
    return free;
  }

  void reserve(Cycles start, Cycles duration, double power) {
    load_.add(start, start + duration, power);
    drain_end_ = std::max(drain_end_, start + duration);
    pack_counters().reservations.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  using const_iterator = Skyline<double>::const_iterator;

  bool window_free_impl(Cycles start, double power, Cycles duration,
                        Cycles* retry_at, std::uint64_t* visited) {
    const Cycles lo = start >= window_ ? start - window_ : 0;
    const Cycles end = start + duration;  // exclusive window-start bound
    const Cycles span_end = end + window_;

    std::vector<Cycles>& times = times_;
    std::vector<double>& levels = levels_;
    std::vector<double>& prefix = prefix_;
    times.clear();
    levels.clear();
    prefix.clear();
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
    const std::size_t n = times.size();
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
    if (!fits) *retry_at = next_retry(start, visited);
    return fits;
  }

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
  double limit_;
  double budget_;
  double slack_;
  Cycles drain_end_ = 0;
  Skyline<double> load_;
  std::vector<Cycles> times_;
  std::vector<double> levels_;
  std::vector<double> prefix_;
};

/// The previous PackTimeline: a wire profile, a peak profile and a
/// window profile, each reserved separately.
class ParentPackTimeline {
 public:
  explicit ParentPackTimeline(int tam_width, double max_power = 0.0,
                              soc::PowerWindow window = {})
      : wires_(tam_width) {
    if (max_power > 0.0) peak_.emplace(max_power, power_slack(max_power));
    if (window.active()) window_.emplace(window.cycles, window.limit);
  }

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

  void reserve(Cycles start, Cycles duration, int width, double power) {
    wires_.reserve(start, duration, width);
    if (peak_.has_value()) peak_->reserve(start, duration, power);
    if (window_.has_value()) window_->reserve(start, duration, power);
  }

 private:
  ParentCapacityProfile<long long> wires_;
  std::optional<ParentCapacityProfile<double>> peak_;
  std::optional<ParentWindowedProfile> window_;
};

/// What one timeline call added to the process-global counters.
PackCounterSnapshot counted(const PackCounterSnapshot& before) {
  const PackCounterSnapshot after = snapshot_pack_counters();
  return {after.admission_checks - before.admission_checks,
          after.events_visited - before.events_visited,
          after.retries - before.retries,
          after.reservations - before.reservations};
}

void expect_same_counts(const PackCounterSnapshot& parent,
                        const PackCounterSnapshot& flat,
                        const std::string& where) {
  ASSERT_EQ(flat.admission_checks, parent.admission_checks) << where;
  ASSERT_EQ(flat.events_visited, parent.events_visited) << where;
  ASSERT_EQ(flat.retries, parent.retries) << where;
  ASSERT_EQ(flat.reservations, parent.reservations) << where;
}

enum class Budgets { kNone, kPeak, kWindow, kBoth };

/// Races PackTimeline against ParentPackTimeline under `budgets`: the
/// same reservations (a third of them zero-power, often outlasting the
/// powered load), and for every probe — against an empty or a random
/// blocked set — the same start and the same published tally; for
/// every reservation the same reservations count.  Probes respect the
/// packer's pre-checks (power <= max_power, admits_alone), so each
/// fixpoint terminates; most probes are then reserved where they
/// landed, the rest anywhere.
void race_timelines(std::uint64_t seed, Budgets budgets, bool dyadic) {
  Rng rng(seed);
  for (int round = 0; round < 30; ++round) {
    const int tam_width = rng.uniform_int(4, 24);
    const bool peak = budgets == Budgets::kPeak || budgets == Budgets::kBoth;
    const bool windowed =
        budgets == Budgets::kWindow || budgets == Budgets::kBoth;
    const double max_power = peak ? 4.0 * rng.uniform_int(4, 12) : 0.0;
    soc::PowerWindow window;
    std::optional<WindowedPowerProfile> probe;  // admits_alone pre-check
    if (windowed) {
      window = {rng.uniform_u64(8, 200), 2.0 * rng.uniform_int(2, 8)};
      probe.emplace(window.cycles, window.limit);
    }
    ParentPackTimeline parent(tam_width, max_power, window);
    PackTimeline flat(tam_width, max_power, window);
    const double hottest = peak ? max_power : 30.0;
    for (int op = 0; op < 120; ++op) {
      const std::string where =
          "round=" + std::to_string(round) + " op=" + std::to_string(op);
      const int width = rng.uniform_int(1, tam_width);
      const bool zero_power = rng.uniform_int(0, 2) == 0;
      const double power =
          zero_power ? 0.0
          : dyadic   ? 0.25 * rng.uniform_int(1, static_cast<int>(4 * hottest))
                     : rng.uniform(0.1, hottest);
      // Zero-power tests run longer, so they often end past the load.
      const Cycles duration = rng.uniform_u64(1, zero_power ? 400 : 150);
      const auto reserve_both = [&](Cycles start) {
        PackCounterSnapshot before = snapshot_pack_counters();
        parent.reserve(start, duration, width, power);
        const PackCounterSnapshot parent_counts = counted(before);
        before = snapshot_pack_counters();
        flat.reserve(start, duration, width, power);
        expect_same_counts(parent_counts, counted(before), where);
      };
      if (rng.uniform_int(0, 3) == 0) {
        reserve_both(rng.uniform_u64(0, 600));
        continue;
      }
      if (probe.has_value() && !probe->admits_alone(power, duration)) {
        continue;
      }
      IntervalSet blocked;
      if (rng.uniform_int(0, 1) == 0) {
        const int intervals = rng.uniform_int(1, 4);
        for (int i = 0; i < intervals; ++i) {
          const Cycles b = rng.uniform_u64(0, 700);
          blocked.insert(b, b + rng.uniform_u64(1, 120));
        }
      }
      const Cycles not_before = rng.uniform_u64(0, 800);
      PackCounterSnapshot before = snapshot_pack_counters();
      const Cycles parent_start = parent.earliest_feasible(
          width, power, duration, blocked, not_before);
      const PackCounterSnapshot parent_counts = counted(before);
      before = snapshot_pack_counters();
      const Cycles flat_start = flat.earliest_feasible(
          width, power, duration, blocked, not_before);
      const PackCounterSnapshot flat_counts = counted(before);
      ASSERT_EQ(flat_start, parent_start)
          << where << " w=" << width << " p=" << power << " d=" << duration
          << " from=" << not_before;
      expect_same_counts(parent_counts, flat_counts, where);
      if (rng.uniform_int(0, 2) != 0) reserve_both(parent_start);
    }
  }
}

TEST(PackTimelineOracle, WiresOnlyMatchesTheThreeProfileTimeline) {
  race_timelines(9001, Budgets::kNone, true);
}

TEST(PackTimelineOracle, PeakOnlyMatchesTheThreeProfileTimeline) {
  race_timelines(9002, Budgets::kPeak, true);
  race_timelines(9003, Budgets::kPeak, false);
}

TEST(PackTimelineOracle, WindowOnlyMatchesTheThreeProfileTimeline) {
  race_timelines(9004, Budgets::kWindow, true);
  race_timelines(9005, Budgets::kWindow, false);
}

TEST(PackTimelineOracle, BothBudgetsMatchTheThreeProfileTimeline) {
  race_timelines(9006, Budgets::kBoth, true);
  race_timelines(9007, Budgets::kBoth, false);
}

}  // namespace
}  // namespace msoc::tam
