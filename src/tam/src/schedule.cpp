#include "msoc/tam/schedule.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "msoc/common/csv.hpp"
#include "msoc/common/error.hpp"
#include "msoc/tam/skyline.hpp"
#include "msoc/tam/windowed_power.hpp"

namespace msoc::tam {

namespace {

/// Maximum sliding-window load integral over any [w, w+window) and the
/// window start attaining it.  The sliding integral of a piecewise-
/// constant load is piecewise linear in w, kinking only where w or
/// w+window crosses a load breakpoint, so the max is attained at one of
/// those starts — the same argument WindowedPowerProfile's admission
/// check relies on, re-derived here independently as the oracle.
std::pair<double, Cycles> max_window_integral(const Skyline<double>& load,
                                              Cycles window) {
  std::vector<Cycles> times;
  std::vector<double> levels;
  std::vector<double> prefix;
  prefix.push_back(0.0);
  for (const auto& [time, level] : load) {
    if (!times.empty()) {
      prefix.push_back(prefix.back() +
                       levels.back() *
                           static_cast<double>(time - times.back()));
    }
    times.push_back(time);
    levels.push_back(level);
  }
  if (times.empty()) return {0.0, 0};
  // Load is 0 before the first breakpoint and after the last (the
  // skyline's final entry always drains to level 0).
  const auto integral_to = [&](Cycles x) {
    if (x <= times.front()) return 0.0;
    const auto seg = std::upper_bound(times.begin(), times.end(), x);
    const std::size_t i = static_cast<std::size_t>(seg - times.begin()) - 1;
    return prefix[i] + levels[i] * static_cast<double>(x - times[i]);
  };
  double best = 0.0;
  Cycles best_start = times.front();
  const auto probe = [&](Cycles w) {
    const double integral = integral_to(w + window) - integral_to(w);
    if (integral > best) {
      best = integral;
      best_start = w;
    }
  };
  for (const Cycles t : times) {
    probe(t);
    probe(t >= window ? t - window : 0);
  }
  return {best, best_start};
}

/// The schedule's power sum over time.  Zero-length or powerless tests
/// contribute nothing to the envelope.
Skyline<double> power_envelope(const Schedule& schedule) {
  Skyline<double> load;
  for (const ScheduledTest& t : schedule.tests) {
    if (t.duration > 0 && t.power != 0.0) load.add(t.start, t.end(), t.power);
  }
  return load;
}

}  // namespace

Cycles Schedule::makespan() const {
  Cycles end = 0;
  for (const ScheduledTest& t : tests) end = std::max(end, t.end());
  return end;
}

Cycles Schedule::idle_area() const {
  const Cycles total = static_cast<Cycles>(tam_width) * makespan();
  Cycles used = 0;
  for (const ScheduledTest& t : tests) {
    used += static_cast<Cycles>(t.width) * t.duration;
  }
  return total - used;
}

double Schedule::utilization() const {
  const Cycles total = static_cast<Cycles>(tam_width) * makespan();
  if (total == 0) return 0.0;
  return 1.0 - static_cast<double>(idle_area()) / static_cast<double>(total);
}

double Schedule::peak_power() const { return power_envelope(*this).peak(); }

std::vector<ScheduleViolation> check_schedule(const Schedule& schedule) {
  std::vector<ScheduleViolation> violations;
  const auto add = [&violations](std::string message) {
    violations.push_back(ScheduleViolation{std::move(message)});
  };

  // Capacity: rebuild the wire-usage skyline and scan its segments.
  // Segment starts are exactly the net-change events of the schedule, so
  // the first over-subscribed segment is the first violating cycle.
  Skyline<long long> usage;
  for (const ScheduledTest& t : schedule.tests) {
    if (t.duration > 0 && t.width != 0) usage.add(t.start, t.end(), t.width);
  }
  for (const auto& [time, level] : usage) {
    if (level > schedule.tam_width) {
      std::ostringstream os;
      os << "TAM over-subscribed at cycle " << time << ": " << level << " > "
         << schedule.tam_width;
      add(os.str());
      break;
    }
  }

  // Power: one envelope for the peak and the window check.
  const bool windowed =
      schedule.window_cycles > 0 && schedule.window_limit > 0.0;
  const Skyline<double> load = schedule.max_power > 0.0 || windowed
                                    ? power_envelope(schedule)
                                    : Skyline<double>{};

  // Instantaneous power against the schedule's budget, with the packer's
  // tolerance: floating-point accumulation leaves ulp-sized residue that
  // must not read as a violation.
  if (schedule.max_power > 0.0) {
    const double slack = power_slack(schedule.max_power);
    for (const auto& [time, level] : load) {
      if (level > schedule.max_power + slack) {
        std::ostringstream os;
        os << "power budget exceeded at cycle " << time << ": " << level
           << " > " << schedule.max_power;
        add(os.str());
        break;
      }
    }
  }

  // Sliding-window average power against the schedule's window budget.
  // Tolerance on the integral scale (budget = limit * window), matching
  // WindowedPowerProfile's slack.
  if (windowed) {
    const double budget = schedule.window_limit *
                          static_cast<double>(schedule.window_cycles);
    const double slack = power_slack(budget);
    const auto [integral, at] =
        max_window_integral(load, schedule.window_cycles);
    if (integral > budget + slack) {
      std::ostringstream os;
      os << "windowed power budget exceeded in window starting at cycle "
         << at << ": average "
         << integral / static_cast<double>(schedule.window_cycles) << " > "
         << schedule.window_limit << " over " << schedule.window_cycles
         << " cycles";
      add(os.str());
    }
  }

  // Analog wrapper serialization: tests in the same wrapper group must
  // not overlap in time.
  std::map<int, std::vector<const ScheduledTest*>> by_group;
  for (const ScheduledTest& t : schedule.tests) {
    if (t.kind == TestKind::kAnalog && t.wrapper_group >= 0) {
      by_group[t.wrapper_group].push_back(&t);
    }
  }
  for (auto& [group, members] : by_group) {
    std::sort(members.begin(), members.end(),
              [](const ScheduledTest* a, const ScheduledTest* b) {
                return a->start < b->start;
              });
    for (std::size_t i = 1; i < members.size(); ++i) {
      if (members[i]->start < members[i - 1]->end()) {
        std::ostringstream os;
        os << "analog wrapper " << group << " used concurrently by "
           << members[i - 1]->core_name << " and " << members[i]->core_name;
        add(os.str());
      }
    }
  }
  return violations;
}

std::vector<ScheduleViolation> validate_schedule(const Schedule& schedule) {
  std::vector<ScheduleViolation> violations;
  const auto add = [&violations](std::string message) {
    violations.push_back(ScheduleViolation{std::move(message)});
  };

  if (schedule.tam_width <= 0) add("TAM width must be positive");

  // Per-test structural checks.
  for (const ScheduledTest& t : schedule.tests) {
    if (t.duration == 0) add("zero-duration test: " + t.core_name);
    if (t.width <= 0) add("non-positive width: " + t.core_name);
    if (t.width > schedule.tam_width) {
      add("test wider than the TAM: " + t.core_name);
    }
    if (!t.wires.empty()) {
      if (static_cast<int>(t.wires.size()) != t.width) {
        add("wire list size != width: " + t.core_name);
      }
      std::set<int> unique(t.wires.begin(), t.wires.end());
      if (unique.size() != t.wires.size()) {
        add("duplicate wires within a test: " + t.core_name);
      }
      for (int w : t.wires) {
        if (w < 0 || w >= schedule.tam_width) {
          add("wire id out of range: " + t.core_name);
        }
      }
    }
  }

  // Per-wire exclusivity (when wire assignments are present).
  std::map<int, std::vector<const ScheduledTest*>> by_wire;
  for (const ScheduledTest& t : schedule.tests) {
    for (int w : t.wires) by_wire[w].push_back(&t);
  }
  for (auto& [wire, users] : by_wire) {
    std::sort(users.begin(), users.end(),
              [](const ScheduledTest* a, const ScheduledTest* b) {
                return a->start < b->start;
              });
    for (std::size_t i = 1; i < users.size(); ++i) {
      if (users[i]->start < users[i - 1]->end()) {
        std::ostringstream os;
        os << "wire " << wire << " double-booked by " << users[i - 1]->core_name
           << " and " << users[i]->core_name;
        add(os.str());
      }
    }
  }

  // Capacity, power and serialization: the shared re-walk.
  for (ScheduleViolation& v : check_schedule(schedule)) {
    violations.push_back(std::move(v));
  }
  return violations;
}

void require_valid(const Schedule& schedule) {
  const std::vector<ScheduleViolation> violations =
      validate_schedule(schedule);
  if (violations.empty()) return;
  std::ostringstream os;
  os << "invalid schedule:";
  for (const ScheduleViolation& v : violations) os << "\n  - " << v.message;
  throw LogicError(os.str());
}

std::string render_gantt(const Schedule& schedule, int columns) {
  require(columns >= 10, "gantt needs at least 10 columns");
  const Cycles span = schedule.makespan();
  if (span == 0) return "(empty schedule)\n";

  std::vector<const ScheduledTest*> order;
  order.reserve(schedule.tests.size());
  for (const ScheduledTest& t : schedule.tests) order.push_back(&t);
  std::sort(order.begin(), order.end(),
            [](const ScheduledTest* a, const ScheduledTest* b) {
              if (a->start != b->start) return a->start < b->start;
              return a->core_name < b->core_name;
            });

  std::size_t label_width = 4;
  for (const ScheduledTest* t : order) {
    label_width = std::max(label_width, t->core_name.size());
  }

  std::ostringstream os;
  for (const ScheduledTest* t : order) {
    const auto col = [&](Cycles c) {
      return static_cast<int>(static_cast<double>(c) /
                              static_cast<double>(span) * (columns - 1));
    };
    const int begin = col(t->start);
    const int end = std::max(begin + 1, col(t->end()));
    os << t->core_name;
    os << std::string(label_width - t->core_name.size() + 1, ' ') << '|';
    for (int c = 0; c < columns; ++c) {
      if (c >= begin && c < end) {
        os << (t->kind == TestKind::kAnalog ? 'a' : '#');
      } else {
        os << ' ';
      }
    }
    os << "| w=" << t->width << '\n';
  }
  os << "time: 0 .. " << span << " cycles\n";
  return os.str();
}

std::string schedule_to_csv(const Schedule& schedule) {
  std::ostringstream buffer;
  CsvWriter csv(buffer,
                {"core", "kind", "wrapper_group", "start", "end", "width"});
  for (const ScheduledTest& t : schedule.tests) {
    csv.write_row({t.core_name,
                   t.kind == TestKind::kAnalog ? "analog" : "digital",
                   std::to_string(t.wrapper_group), std::to_string(t.start),
                   std::to_string(t.end()), std::to_string(t.width)});
  }
  return buffer.str();
}

}  // namespace msoc::tam
