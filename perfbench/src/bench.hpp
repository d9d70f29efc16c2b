#pragma once
// Shared vocabulary of the benchmark program: run configuration, the
// per-workload result, the span tracer and small statistics helpers.
//
// Every workload runs the same calls with tracing on or off.  With it
// off a Span is one branch; with it on, each call into a planner module
// is wrapped in a span named after the layer it times (soc.parse,
// wrapper.staircase, plan.solve, ...) and the spans are kept in memory
// until the run ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "msoc/tam/counters.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Derives an independent input seed from the workload seed and up to
/// two stream coordinates (SplitMix64 finalizer).
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed,
                                               std::uint64_t a,
                                               std::uint64_t b = 0) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + a * 0xD1B54A32D192ED03ULL +
                    b * 0x8CB92BA72F3D8DD7ULL + 1;
  z = (z ^ (z >> 30U)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27U)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31U);
}

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Scratch directory inside the checkout (cache stores, sockets).
  std::string work_dir;
  /// Per-stream operation caps (one stream per client thread; empty =
  /// run until the deadline).  A traced pass replays exactly the
  /// operations its untraced pass completed.
  std::vector<long long> stream_limits;
  /// Collect deterministic per-operation counters (the traced run's
  /// two passes both do, so they can be compared).
  bool counters = false;
};

/// How many times a workload repeats its set-up; setup_s is the median.
inline constexpr int kSetupRepeats = 5;

/// Deterministic counters of one operation, by metric name.
using OpCounters = std::map<std::string, double>;

struct WorkloadResult {
  double setup_s = 0.0;           ///< Median of the repeated set-ups.
  std::vector<double> op_ms;      ///< Every timed operation.
  std::vector<double> hit_ms;     ///< Operations answered from stored results.
  std::vector<double> miss_ms;    ///< Operations on a new input.
  double busy_s = 0.0;            ///< Denominator of ops_per_s.
  std::vector<long long> stream_ops;  ///< Operations completed per stream.
  long long attempted = 0;
  long long failed = 0;
  /// Per-layer metrics the workload measures itself (counts, ratios).
  std::map<std::string, double> layers;
  /// Deterministic counters per operation id (see determinism check).
  std::map<long long, OpCounters> op_counters;
};

/// One recorded span.  Times are microseconds since the tracer started.
struct SpanRecord {
  int id = 0;
  int parent = -1;  ///< -1 = root.
  long long op = -1;
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  int thread = 0;
};

class Tracer {
 public:
  class Span {
   public:
    Span(Tracer* tracer, const char* name, long long op);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    SpanRecord record_;
  };

  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// RAII span around one layer call; inert when tracing is off.
  [[nodiscard]] Span span(const char* name, long long op) {
    return Span(enabled_ ? this : nullptr, name, op);
  }

  [[nodiscard]] std::vector<SpanRecord> records() const;

  /// Chrome trace-event JSON ("X" complete events, one per span).
  void write_chrome(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> records_;
  int next_id_ = 0;
};

/// Per-layer totals over every span of one name.
struct LayerTotals {
  long long calls = 0;
  double self_ms = 0.0;        ///< All spans of this name.
  double self_in_op_ms = 0.0;  ///< Spans below an "op" root only.
};

struct TraceSummary {
  std::map<std::string, LayerTotals> layers;
  long long ops = 0;      ///< "op" spans.
  double op_ms = 0.0;     ///< Summed duration of the "op" spans.
};

/// Self time of a span = its duration minus its children's.
[[nodiscard]] TraceSummary summarize(const std::vector<SpanRecord>& records);

/// Linear-interpolation quantile (q in [0,1]) of unsorted samples; 0
/// when empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// Adds the packer's admission counters accumulated since `before`
/// (process-global; exact only while one thread packs).
void add_pack_counters(OpCounters& counters,
                       const msoc::tam::PackCounterSnapshot& before);

/// Mean of one counter over every operation that recorded it.
[[nodiscard]] double counter_mean(
    const std::map<long long, OpCounters>& counters, const std::string& name);

/// Zeroes the wall-clock fields of a planning document, the only bytes
/// that differ between two evaluations of one request.
[[nodiscard]] std::string strip_wall_ms(const std::string& document);

WorkloadResult run_scale_plan(const RunConfig& config, Tracer& tracer);
WorkloadResult run_eco_replan(const RunConfig& config, Tracer& tracer);
WorkloadResult run_daemon_mix(const RunConfig& config, Tracer& tracer);

}  // namespace perfbench
