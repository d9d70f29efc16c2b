#pragma once
// Reference oracle for stage 2's makespan resolution: a memoizing
// Eq. 2 model over one (SOC, width, packing options) problem, packing
// every combination straight through tam::schedule_soc.  It shares no
// code with plan::PartitionEvaluator — no stage-1 cache keys, no
// result store, no replan splice — so suites that count the engine's
// evaluations against it (test_frontier, test_differential) compare two
// independent statements of the paper's counting: the all-share
// baseline is the normalization constant and never a paid TAM run.

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/mswrap/area_model.hpp"
#include "msoc/mswrap/partition.hpp"
#include "msoc/mswrap/sharing.hpp"
#include "msoc/plan/cost_model.hpp"
#include "msoc/soc/soc.hpp"
#include "msoc/tam/packing.hpp"
#include "msoc/tam/schedule.hpp"

namespace msoc::plan::reference {

/// Everything the oracle needs to evaluate combinations on one SOC.
struct PlanningProblem {
  const soc::Soc* soc = nullptr;
  int tam_width = 32;
  CostWeights weights;
  mswrap::WrapperAreaModel area_model;
  mswrap::SharingPolicy policy;
  mswrap::EnumerationOptions enumeration;
  tam::PackingOptions packing;

  void validate() const {
    require(soc != nullptr, "planning problem needs an SOC");
    require(tam_width >= 1, "TAM width must be >= 1");
    require(soc->analog_count() >= 1, mswrap::kNoAnalogCoreMessage);
    weights.validate();
  }
};

/// Evaluates combinations against one PlanningProblem, memoizing the
/// TAM-optimizer runs and the T_max baseline (packed at construction).
/// evaluate() is safe to call concurrently on distinct partitions.
class CostModel {
 public:
  explicit CostModel(const PlanningProblem& problem) : problem_(problem) {
    problem_.validate();
    names_ = mswrap::core_names(cores());
    std::vector<std::size_t> all(cores().size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    const mswrap::Partition all_share(
        std::vector<std::vector<std::size_t>>{all});
    all_share_schedule_ = schedule_for(all_share);
    t_max_ = all_share_schedule_.makespan();
    time_cache_[all_share] = t_max_;
    check_invariant(t_max_ > 0, "T_max must be positive");
  }

  /// SOC test time with all analog cores on one wrapper.
  [[nodiscard]] Cycles t_max() const noexcept { return t_max_; }

  /// Full Eq. 2 evaluation (runs the TAM optimizer; memoized).
  [[nodiscard]] CombinationCost evaluate(const mswrap::Partition& partition) {
    return combination_cost(problem_.weights, partition,
                            partition.to_string(names_), run_tam(partition),
                            t_max_,
                            problem_.area_model.area_cost(cores(), partition));
  }

  /// Distinct TAM-optimizer runs so far, the all-share baseline
  /// excluded.
  [[nodiscard]] int tam_runs() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return tam_runs_;
  }

  [[nodiscard]] const std::vector<soc::AnalogCore>& cores() const {
    return problem_.soc->analog_cores();
  }
  [[nodiscard]] const PlanningProblem& problem() const { return problem_; }

  /// The schedule of `partition`, packed with the baseline as its
  /// serialized-fallback hint (once the baseline exists).
  [[nodiscard]] tam::Schedule schedule_for(
      const mswrap::Partition& partition) const {
    tam::PackingOptions packing = problem_.packing;
    if (!all_share_schedule_.tests.empty()) {
      packing.serialized_hint = &all_share_schedule_;
    }
    return tam::schedule_soc(*problem_.soc, problem_.tam_width,
                             mswrap::to_analog_partition(cores(), partition),
                             packing);
  }

 private:
  [[nodiscard]] Cycles run_tam(const mswrap::Partition& partition) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = time_cache_.find(partition);
      if (it != time_cache_.end()) return it->second;
    }
    // Two threads racing on the SAME partition both pack it; only the
    // first insert counts, so tam_runs stays exact either way.
    const tam::Schedule schedule = schedule_for(partition);
    tam::require_valid(schedule);
    const Cycles time = schedule.makespan();
    const std::lock_guard<std::mutex> lock(mutex_);
    if (time_cache_.emplace(partition, time).second) ++tam_runs_;
    return time;
  }

  PlanningProblem problem_;
  std::vector<std::string> names_;
  Cycles t_max_ = 0;
  tam::Schedule all_share_schedule_;
  mutable std::mutex mutex_;  ///< Guards tam_runs_ and time_cache_.
  int tam_runs_ = 0;
  std::map<mswrap::Partition, Cycles> time_cache_;
};

}  // namespace msoc::plan::reference
