#pragma once
// Deterministic instrumentation counters for the packer's hot kernels.
//
// The CI perf-trajectory gate (tools/check_bench.py over BENCH_*.json)
// compares these counters — not wall-clock — against committed
// baselines, so they must be exactly reproducible for a given workload.
// They are: admission checks and reservations are decided by the
// deterministic packing algorithm, and events_visited counts skyline
// segments walked, which is a pure function of the same decisions.
// Totals are accumulated with relaxed atomics so parallel plan
// evaluation (which runs the same set of packs regardless of job count)
// produces the same sums on any thread ladder.

#include <atomic>
#include <cstdint>

namespace msoc::tam {

/// Live counters (relaxed atomics, process-global).
struct PackCounters {
  std::atomic<std::uint64_t> admission_checks{0};  ///< admission kernel calls.
  std::atomic<std::uint64_t> events_visited{0};    ///< skyline segments walked.
  std::atomic<std::uint64_t> retries{0};           ///< failed admission checks.
  std::atomic<std::uint64_t> reservations{0};      ///< placements x axes.
};

/// The process-global counter block.
[[nodiscard]] PackCounters& pack_counters() noexcept;

/// Plain per-probe admission counts.  Every admission kernel counts
/// into the caller's tally (no shared-memory traffic per check);
/// publish() then adds the whole probe to the process-global block in
/// one go, so PackTimeline's fixpoint pays the atomics once per probe
/// rather than once per check.
struct AdmissionTally {
  std::uint64_t checks = 0;   ///< admission kernel calls.
  std::uint64_t visited = 0;  ///< skyline segments walked.
  std::uint64_t retries = 0;  ///< failed admission checks.

  /// Records one admission check that walked `walked` skyline segments
  /// (a failed check is also a retry).
  void count(bool free, std::uint64_t walked) noexcept {
    ++checks;
    visited += walked;
    if (!free) ++retries;
  }

  /// Adds the tally to pack_counters().
  void publish() const noexcept;
};

/// A plain-value copy for reporting and differencing.
struct PackCounterSnapshot {
  std::uint64_t admission_checks = 0;
  std::uint64_t events_visited = 0;
  std::uint64_t retries = 0;
  std::uint64_t reservations = 0;
};

[[nodiscard]] PackCounterSnapshot snapshot_pack_counters() noexcept;
void reset_pack_counters() noexcept;

}  // namespace msoc::tam
