#pragma once
// Batch plan-evaluation sweeps: one result row per {SOC x TAM width x
// cost weights} case, exportable as CSV and as machine-readable JSON
// (schema "msoc-sweep-v5", documented in docs/formats.md).  Each
// (SOC, weight) pair routes through one plan::FrontierEngine walking
// every width, so enumeration, Eq. 3 preliminaries and Pareto
// staircases are shared across widths, and a ResultCache lets repeated
// sweeps skip solved cells entirely.  This is the ITC'02-style
// multi-scenario harness the CLI's --sweep flag and the
// bench/sweep_perf driver drive on every commit.

#include <string>
#include <vector>

#include "msoc/common/units.hpp"
#include "msoc/plan/frontier.hpp"
#include "msoc/soc/soc.hpp"

namespace msoc::plan {

/// What to sweep.  SOCs are owned by value so configs built from the
/// embedded benchmarks or from loaded .soc files are self-contained.
struct SweepConfig {
  std::vector<soc::Soc> socs;
  std::vector<int> tam_widths = {16, 24, 32, 48, 64};
  /// Power-budget ladder, resolved per SOC like
  /// tam::PackingOptions::max_power (< 0 = inherit Soc::max_power, 0 =
  /// unconstrained, > 0 explicit).  The default single inherit rung
  /// reproduces the pre-power sweep exactly on undeclared SOCs.
  std::vector<double> max_powers = {-1.0};
  /// Sliding-window budget, resolved per SOC like
  /// tam::PackingOptions::window_limit (< 0 = inherit
  /// Soc::power_window, 0 = unwindowed, > 0 explicit with
  /// window_cycles > 0).  One window per sweep, crossed with the power
  /// ladder; the default inherit rung reproduces the pre-window sweep
  /// exactly on unwindowed SOCs.
  double window_limit = -1.0;
  Cycles window_cycles = 0;
  std::vector<double> time_weights = {0.25, 0.5, 0.75};
  bool exhaustive = false;  ///< Cost_Optimizer when false.
  double epsilon = 0.0;     ///< Heuristic elimination slack.
  /// Total worker threads (<= 0 = hardware concurrency).  The sweep
  /// fans (SOC x weight) series out over a pool — each series walks
  /// every width through one FrontierEngine — and leftover budget goes
  /// to the engines' evaluation fan-out.  Both levels are
  /// deterministic, so results never depend on the value.
  int jobs = 1;
  /// Persistent TAM-makespan cache (borrowed; null disables caching).
  /// The sweep opens its SOCs' digests, records into the overlay and
  /// flushes at the end.  Lookups see only the state loaded at sweep
  /// start (results computed during the sweep land on flush), so a
  /// warm re-run skips every solved cell while per-row evaluation
  /// counts stay scheduling-independent.  The result's cache
  /// statistics are DELTAS over this run: a long-lived cache (the
  /// planning daemon's shared store) carries other requests' traffic.
  ResultCache* cache = nullptr;
  /// Incremental re-plan baseline: when non-empty, every series calls
  /// FrontierEngine::replan against the store flushed for this SOC
  /// digest (a previous revision), re-packing only partitions whose
  /// core digests went dirty.  Requires a cache and exactly one SOC.
  std::string replan_from;

  /// Number of cases the cross product produces.
  [[nodiscard]] std::size_t case_count() const;
};

/// One sweep case's outcome.  Infeasible cases (e.g. a TAM narrower than
/// an analog wrapper) are recorded with `error` set instead of aborting
/// the sweep; library invariant violations (LogicError) are NOT soft —
/// they propagate out of run_sweep and fail the whole sweep.
struct SweepRow {
  std::string soc_name;
  int tam_width = 0;
  double max_power = 0.0;  ///< Effective power budget; 0 = unlimited.
  /// Effective sliding-window budget; both 0 = unwindowed.
  Cycles window_cycles = 0;
  double window_limit = 0.0;
  double w_time = 0.0;
  std::string algorithm;  ///< "exhaustive" or "cost_optimizer".
  std::string best_label;
  double best_total = 0.0;
  double c_time = 0.0;
  double c_area = 0.0;
  Cycles test_time = 0;
  Cycles t_max = 0;
  /// TAM-optimizer runs this case actually performed.  Frontier-engine
  /// pruning and cache hits reduce it below the paper's heuristic N;
  /// a fully-cached case reports 0.
  int evaluations = 0;
  int total_combinations = 0;
  /// Combinations spliced from the replan baseline store (0 unless
  /// the sweep replanned).
  int reused = 0;
  double evaluation_reduction_percent = 0.0;
  double wall_ms = 0.0;  ///< Wall-clock of this case, model build included.
  std::string error;     ///< Empty on success.

  [[nodiscard]] bool ok() const { return error.empty(); }
};

struct SweepResult {
  /// One per case, in cross-product order: socs x widths x powers x
  /// weights (a single default power rung keeps the pre-power order).
  std::vector<SweepRow> rows;
  double total_wall_ms = 0.0;  ///< Whole sweep, fan-out included.
  /// Worker threads the sweep actually used: sweep_fanout's threads().
  int jobs = 1;
  bool exhaustive = false;
  double epsilon = 0.0;
  /// Result-cache statistics over this sweep (all zero without a
  /// cache).
  long long cache_hits = 0;
  long long cache_misses = 0;
  long long cache_records = 0;
  int cache_corrupt_files = 0;
  /// Replan provenance, set only when the engines really spliced from
  /// the baseline store: the baseline digest, the total splices, and
  /// the worst series' dirty count.
  std::string replanned_from;
  int reused = 0;
  int dirty_partitions = 0;

  /// RFC-4180 CSV, one row per case, under one fixed header.
  [[nodiscard]] std::string to_csv() const;

  /// "msoc-sweep-v5" JSON document.  Every field is always written,
  /// whatever the sweep used: max_power 0 means unconstrained,
  /// window_cycles/window_limit 0 unwindowed, replanned_from "" no
  /// replan, and the cache block is all zeros for a cacheless sweep.
  [[nodiscard]] std::string to_json() const;
};

/// The sweep-schema case for one point of a frontier run: how run_sweep
/// reports every cell, and how a single plan reports its one cell.
[[nodiscard]] SweepRow sweep_row(const FrontierResult& frontier,
                                 const FrontierPoint& point);

/// How run_sweep splits `jobs` (<= 0 = hardware concurrency) over
/// `series` independent frontier engines: `outer` engines run at once,
/// and each fans its evaluations out over `inner` threads.  A
/// sweep-schema document's "jobs" is threads() — a single plan is one
/// series.
struct SweepFanout {
  int outer = 1;
  int inner = 1;
  [[nodiscard]] int threads() const { return outer * inner; }
};
[[nodiscard]] SweepFanout sweep_fanout(int jobs, std::size_t series);

/// Runs every case of the cross product.  Case order in the result is
/// deterministic (socs x widths x weights, in config order) regardless of
/// jobs; wall_ms fields are the only nondeterministic outputs.
[[nodiscard]] SweepResult run_sweep(const SweepConfig& config);

/// The default benchmark sweep behind `msoc_plan --sweep`: the built-in
/// mixed-signal SOCs (p93791m and d695m) across the paper's TAM widths
/// and weight settings.
[[nodiscard]] SweepConfig default_benchmark_sweep();

}  // namespace msoc::plan
