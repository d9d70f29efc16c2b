#pragma once
// Test schedules on a flexible-width TAM.
//
// A schedule assigns every core test a start time, a duration, a TAM
// wire allocation and a power load.  The flexible-width architecture
// treats the W wires as a pool: a test needs `width` wires for its whole
// duration; validation checks the instantaneous usage never exceeds W,
// that tests of cores sharing one analog wrapper never overlap (the
// paper's serialization constraint), and — when the schedule carries a
// power budget — that the instantaneous power sum of the running tests
// never exceeds it.

#include <string>
#include <vector>

#include "msoc/common/units.hpp"

namespace msoc::tam {

enum class TestKind { kDigital, kAnalog };

struct ScheduledTest {
  TestKind kind = TestKind::kDigital;
  std::string core_name;
  std::string test_name;   ///< Analog spec test (e.g. "f_c"); empty for
                           ///< a digital core's whole pattern set.
  int wrapper_group = -1;  ///< Analog wrapper id; -1 for digital cores.
  Cycles start = 0;
  Cycles duration = 0;
  int width = 0;
  double power = 0.0;      ///< Dissipation while this test runs.
  std::vector<int> wires;  ///< Assigned wire ids (size == width).

  [[nodiscard]] Cycles end() const { return start + duration; }
};

struct Schedule {
  int tam_width = 0;
  double max_power = 0.0;  ///< Budget this schedule honors; 0 = unlimited.
  /// Sliding-window budget this schedule honors: every window of
  /// `window_cycles` cycles averages at most `window_limit` power units.
  /// Both zero = unwindowed (the two fields are set together).
  Cycles window_cycles = 0;
  double window_limit = 0.0;
  std::vector<ScheduledTest> tests;

  /// Completion time of the last test.
  [[nodiscard]] Cycles makespan() const;

  /// Highest instantaneous power sum over the timeline.
  [[nodiscard]] double peak_power() const;

  /// Idle wire-cycles: W * makespan - used wire-cycles.
  [[nodiscard]] Cycles idle_area() const;

  /// Fraction of the W x makespan rectangle carrying test data, in [0,1].
  [[nodiscard]] double utilization() const;
};

/// Violation report from schedule validation.
struct ScheduleViolation {
  std::string message;
};

/// Re-walks a schedule against the scheduling invariants every producer
/// must honor: instantaneous TAM usage <= tam_width, tests of one
/// analog wrapper never overlap, (when max_power > 0) instantaneous
/// power <= max_power, and (when window_cycles > 0) every
/// window_cycles-long window averages at most window_limit power.
/// Returns all violations (empty == valid).  This is the reusable
/// validity oracle the property suites run over every schedule they
/// see; schedule_soc runs it (through require_valid) on every output.
[[nodiscard]] std::vector<ScheduleViolation> check_schedule(
    const Schedule& schedule);

/// check_schedule plus per-test structural checks and wire-assignment
/// consistency.  Returns all violations (empty == valid).
[[nodiscard]] std::vector<ScheduleViolation> validate_schedule(
    const Schedule& schedule);

/// Throws LogicError when the schedule is invalid.
void require_valid(const Schedule& schedule);

/// Renders an ASCII Gantt chart (one row per test, time buckets scaled to
/// `columns` characters) for reports and examples.
[[nodiscard]] std::string render_gantt(const Schedule& schedule,
                                       int columns = 72);

/// Exports the schedule as CSV rows (core,kind,group,start,end,width).
[[nodiscard]] std::string schedule_to_csv(const Schedule& schedule);

}  // namespace msoc::tam
