#pragma once
// The staged planning pipeline behind plan::FrontierEngine
// (docs/architecture.md, "staged pipeline"):
//
//   Stage 1 — PartitionSpace: enumerate the sharing combinations once
//   per SOC, with each combination's Eq. 3 preliminary cost, analog
//   lower bound, Fig. 3 shape groups, and BOTH content-addressed cache
//   keys (full-digest for power-constrained cells, power-stripped for
//   unconstrained ones).  Everything here is width- and
//   budget-independent.
//
//   Stage 2 — PartitionEvaluator: resolve partition makespans for one
//   (width, budget) cell.  Keyed entirely by core-digest multisets, so
//   a makespan can come from three places, tried in order: the current
//   store's snapshot, a replan BASELINE store (when the cell's digests
//   are clean relative to it), or a fresh TAM pack (one deterministic
//   parallel fan-out over the misses).  The evaluator packs for itself:
//   it owns the cell's all-share baseline schedule (the T_max every
//   cost normalizes by, lent to each fresh pack as its serialized
//   fallback) and its only makespan memo.  Reused and fresh results
//   alike are re-recorded under the CURRENT digest — that is the
//   splice that materializes an up-to-date store on flush.
//
//   Stage 3 — frontier assembly (frontier.cpp): Fig. 3 elimination,
//   lower-bound pruning, winner reduction, and per-rung Pareto /
//   monotonicity marking over the resolved makespans.  This is the
//   library's only Fig. 3 reduction: single plans, sweeps and the
//   Table 4 report all run it, a single plan as a one-width frontier.
//
// The stages share no hidden state: stage 2 sees stage 1 only through
// the cells' cache keys, which is exactly why stage 2 results survive
// SOC revisions whose digests are clean (FrontierEngine::replan).

#include <optional>
#include <string>
#include <vector>

#include "msoc/plan/cost_model.hpp"
#include "msoc/plan/result_cache.hpp"
#include "msoc/soc/delta.hpp"
#include "msoc/soc/soc.hpp"
#include "msoc/tam/packing.hpp"
#include "msoc/tam/schedule.hpp"

namespace msoc::plan {

/// Raised by stage 2 when a parseable cache entry contradicts a
/// freshly-packed baseline (stale or tampered store): the caller
/// re-solves the cell without trusting any store.  Never escapes the
/// engine.
struct StaleCacheError {};

/// One enumerated sharing combination with its width-independent
/// precomputation (stage 1 product).
struct PartitionCell {
  mswrap::SharingEvaluation evaluation;
  double prelim = 0.0;    ///< Eq. 3 (preliminary_cost).
  Cycles analog_lb = 0;   ///< Busiest-wrapper usage (width-independent).
  std::string key_full;     ///< partition_key over full core digests.
  std::string key_packing;  ///< ... over power-stripped digests.
};

/// Fig. 3 shape group over PartitionSpace cells.
struct PartitionGroup {
  std::vector<std::size_t> members;  ///< Cell indices, enumeration order.
  std::size_t representative = 0;    ///< Best Eq. 3 member.
};

/// Stage 1: the enumerated partition space of one SOC under one set of
/// weights — combination cells, their shape groups, and the all-share
/// baseline partition every cost normalizes by.
class PartitionSpace {
 public:
  /// Enumerates and groups; throws InfeasibleError when no sharing
  /// combination is feasible.
  PartitionSpace(const soc::Soc& soc, const CostWeights& weights,
                 const mswrap::WrapperAreaModel& area_model,
                 const mswrap::SharingPolicy& policy,
                 const mswrap::EnumerationOptions& enumeration);

  std::vector<PartitionCell> cells;
  std::vector<PartitionGroup> groups;
  mswrap::Partition all_share;       ///< Every analog core on one wrapper.
  std::string all_share_key_full;
  std::string all_share_key_packing;

  /// Per-cell reuse permission against a baseline delta: a cell is
  /// CLEAN when the digital context and every member analog core of
  /// its partition are untouched in the digest flavor the budget class
  /// keys on (`packing` flavor for unconstrained cells).  Dirty cells
  /// must be re-packed; clean ones may read the baseline store.
  [[nodiscard]] std::vector<bool> classify_clean(
      const soc::Soc& soc, const soc::DigestDelta& delta,
      bool packing_flavor) const;
};

/// Stage 2: makespan resolution for one (width, budget) cell.  Create
/// one per cell; `begin_cell` fixes the T_max baseline, `resolve`
/// fills makespans for cell indices on demand.  All lookups hit the
/// stores' open-time snapshots, and the fresh-pack fan-out is
/// deterministic per `jobs`, so resolution order never changes
/// results.
class PartitionEvaluator {
 public:
  /// `packing` is the cell's RESOLVED packing options: max_power is
  /// the effective budget (never the inherit sentinel), and
  /// window_cycles/window_limit the effective sliding window (limit 0 =
  /// unwindowed).  Those fields are also the cell's EntryKey
  /// coordinates.  `clean` (borrowed, may be
  /// null = no baseline reuse) flags the cells allowed to read
  /// `baseline_digest`'s store.  `cache` may be null (everything is
  /// packed fresh).  `trust_cache` false disables ALL store reads — the
  /// StaleCacheError retry path.
  PartitionEvaluator(const soc::Soc& soc, const PartitionSpace& space,
                     ResultCache* cache, const std::string& digest,
                     const std::string& baseline_digest,
                     const std::string& fingerprint, int width,
                     const tam::PackingOptions& packing, bool trust_cache,
                     const std::vector<bool>* clean, int jobs);

  /// Resolves the all-share T_max: current store, then baseline store,
  /// then a fresh baseline pack (records fresh AND baseline-read values
  /// under the current digest).  A store-read baseline is checked
  /// against a fresh pack before the first fresh combination pack (see
  /// resolve()).
  [[nodiscard]] Cycles begin_cell();

  /// Resolves `indices`: current store, baseline store (clean cells
  /// only), then one parallel fan-out of TAM packs over the misses.
  /// The all-share cell is never packed: on a miss it takes the
  /// baseline makespan.  Throws StaleCacheError when a store value
  /// contradicts the baseline.
  void resolve(const std::vector<std::size_t>& indices);

  [[nodiscard]] const std::optional<Cycles>& time(std::size_t index) const {
    return time_of_[index];
  }
  [[nodiscard]] int cache_hits() const noexcept { return cache_hits_; }
  [[nodiscard]] int reused() const noexcept { return reused_; }
  /// Fresh combination packs so far.  The all-share baseline is
  /// excluded: it is the normalization constant every cost needs
  /// anyway (the paper's evaluation counting).
  [[nodiscard]] int evaluations() const noexcept { return evaluations_; }

 private:
  /// Store lookup for one key: current digest first, then the baseline
  /// store when this cell may reuse it.  Counts hits/reused and
  /// re-records baseline reads under the current digest (the splice).
  [[nodiscard]] std::optional<Cycles> lookup(const std::string& key,
                                             const std::string& label,
                                             bool cell_clean);
  [[nodiscard]] ResultCache::EntryKey entry_key(
      const std::string& partition_key) const;
  /// The all-share schedule, packed on first use.
  [[nodiscard]] const tam::Schedule& baseline();

  const soc::Soc& soc_;
  const PartitionSpace& space_;
  ResultCache* cache_;
  const std::string& digest_;
  const std::string& baseline_digest_;  ///< Empty = not replanning.
  const std::string& fingerprint_;
  int width_;
  tam::PackingOptions packing_;
  /// Constrained packs (peak budget or window) see power annotations
  /// and key on the full digests; unconstrained ones provably cannot,
  /// so they key on the stripped digests and stay valid across
  /// power-annotation-only revisions.
  bool powered_;
  bool trust_cache_;
  const std::vector<bool>* clean_;
  int jobs_;
  Cycles t_max_ = 0;
  bool t_max_from_store_ = false;
  std::optional<tam::Schedule> baseline_;
  std::vector<std::optional<Cycles>> time_of_;
  int cache_hits_ = 0;
  int reused_ = 0;
  int evaluations_ = 0;
};

}  // namespace msoc::plan
