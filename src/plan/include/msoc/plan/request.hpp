#pragma once
// One planning request, whichever surface it arrives on.
//
// `msoc_plan` builds a PlanRequest from its command line, the planning
// daemon decodes one from each msoc-rpc-v1 envelope (docs/formats.md),
// and both hand it to execute() — the only code that maps a request
// onto the frontier engine (a single plan is a one-width frontier) or
// the sweep runner and renders the result document.  In-process, daemon and
// fallback documents are therefore byte-identical by construction:
// one function writes them.
//
// The request mirrors the wire: an absent optional is an absent field,
// and resolves to the same per-op default on every surface.  validate()
// owns every range check and every rule about which fields combine;
// the argv and JSON parsers check only syntax (is it a number, an
// integer, a list) and leave the rest to it, so a rejected request gets
// the same message from both surfaces.

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "msoc/plan/frontier.hpp"
#include "msoc/plan/sweep.hpp"
#include "msoc/soc/soc.hpp"
#include "msoc/tam/schedule.hpp"

namespace msoc::plan {

class ResultCache;

struct PlanRequest {
  /// The SOC a request plans when it names neither `bench` nor
  /// `soc_text` (a sweep naming neither runs default_benchmark_sweep).
  static constexpr const char* kDefaultBench = "p93791m";

  /// ping | stats | shutdown (control ops, no planning fields) or
  /// plan | sweep | frontier.
  std::string op = "plan";
  std::optional<std::string> bench;  ///< Built-in benchmark name.
  std::optional<std::string> soc_text;  ///< Full .soc content.
  std::optional<int> width;
  std::optional<std::vector<int>> widths;
  /// Power-budget ladder (0 = unconstrained); absent = inherit the
  /// SOC's MaxPower declaration.
  std::optional<std::vector<double>> max_powers;
  /// Sliding-window budget; absent = inherit the SOC's PowerWindow
  /// declaration, 0 = force unwindowed whatever window_cycles says.
  std::optional<double> window_limit;
  std::optional<long long> window_cycles;
  std::optional<double> w_time;  ///< Absent: 0.5, or a sweep's ladder.
  bool exhaustive = false;
  double epsilon = 0.0;
  int jobs = 1;
  std::optional<std::string> replan_from;  ///< Baseline SOC digest.

  [[nodiscard]] bool operator==(const PlanRequest&) const = default;

  /// True for plan, sweep and frontier.
  [[nodiscard]] bool planning() const;

  /// A sweep naming no SOC: execute() sweeps the default benchmark
  /// set.  Every other planning request plans exactly one SOC.
  [[nodiscard]] bool default_sweep() const {
    return op == "sweep" && !bench && !soc_text;
  }

  /// Throws InfeasibleError on the first rule the request breaks.
  void validate() const;

  /// Decodes and validates one msoc-rpc-v1 request envelope.  Control
  /// ops ignore every planning field; unknown fields are ignored.
  [[nodiscard]] static PlanRequest from_json(std::string_view envelope);

  /// The canonical msoc-rpc-v1 envelope: fixed field order, present
  /// fields only (control ops carry just their op).
  [[nodiscard]] std::string to_json() const;

  /// to_json() with soc_text replaced by its fnv1a64 hash: equal keys
  /// exactly for equal requests.  The daemon's memo and single-flight
  /// key.
  [[nodiscard]] std::string canonical_key() const;

  /// Applies one msoc_plan planning flag (`--width`, `--sweep`, ...;
  /// `value` fetches a flag's argument).  Returns false for a flag
  /// that is not a planning flag.  `--soc` is the caller's: it names a
  /// file, while a request carries the file's content.
  static bool apply_flag(PlanRequest& request, std::string_view flag,
                         const std::function<std::string()>& value);
};

/// One of the built-in benchmark SOCs: p93791m, d695m, p93791 or d695.
[[nodiscard]] soc::Soc builtin_soc(std::string_view name);

/// What execute() produced: the document and CSV every surface
/// returns, plus the typed result behind them for summaries.
struct PlanResult {
  std::string document;  ///< msoc-frontier-* or msoc-sweep-* JSON.
  /// The frontier or sweep result table, or a plan's schedule.
  std::string csv;
  std::optional<FrontierResult> frontier;  ///< op frontier.
  /// op sweep; op plan reports as a one-case sweep.
  std::optional<SweepResult> sweep;
  std::optional<tam::Schedule> schedule;  ///< op plan: the winner's.
};

/// Validates and runs a planning request.  `soc` is the SOC the request
/// names (its soc_text parsed, its bench, or kDefaultBench); it may be
/// null only for a default_sweep().  `cache` (borrowed, may be null)
/// serves sweeps and frontiers and is flushed after them; a replan
/// needs one to splice from.
[[nodiscard]] PlanResult execute(const PlanRequest& request,
                                 const soc::Soc* soc, ResultCache* cache);

}  // namespace msoc::plan
