#pragma once
// Reference oracle for the Fig. 3 reduction: the standalone exhaustive
// and Cost_Optimizer loops the library once shipped, kept for the
// suites that check plan::FrontierEngine against them.  Both run
// straight over the reference CostModel (reference_cost_model.hpp) —
// no stage-1 cache, no lower-bound pruning — so they are an
// independent restatement of the paper's algorithm, not a second copy
// of the engine's.
//
// Exhaustive: run the TAM optimizer for every sharing combination and
// take the minimum of Eq. 2.
//
// Cost_Optimizer:
//   1. Group combinations by degree of sharing (partition shape).
//   2. Compute the Eq. 3 preliminary cost of every combination.
//   3. Evaluate only the best preliminary element of each group.
//   4. Eliminate every group whose representative costs more than the
//      cheapest representative by more than epsilon.
//   5. Fully evaluate surviving groups; return the overall minimum.
//
// Evaluation counting matches the paper: the all-share combination is
// free (it is the C_time normalization baseline), so N is the number of
// *additional* TAM-optimizer runs.

#include <algorithm>
#include <limits>
#include <map>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/common/parallel.hpp"
#include "reference_cost_model.hpp"

namespace msoc::plan::reference {

struct OptimizationResult {
  CombinationCost best;
  int evaluations = 0;         ///< TAM-optimizer runs (paper's N).
  int total_combinations = 0;  ///< Paper's N_tot.
};

struct HeuristicOptions {
  double epsilon = 0.0;  ///< Fig. 3 elimination slack.
  int jobs = 1;          ///< TAM-evaluation threads (<= 0 = all cores).
};

inline std::vector<mswrap::SharingEvaluation> feasible_combinations(
    CostModel& model) {
  const PlanningProblem& problem = model.problem();
  std::vector<mswrap::SharingEvaluation> all = mswrap::evaluate_combinations(
      model.cores(), problem.area_model, problem.policy,
      problem.enumeration);
  std::vector<mswrap::SharingEvaluation> feasible;
  feasible.reserve(all.size());
  for (mswrap::SharingEvaluation& e : all) {
    if (e.feasible) feasible.push_back(std::move(e));
  }
  require(!feasible.empty(), "no feasible sharing combination");
  return feasible;
}

/// Evaluates every combination; the minimum is reduced serially in
/// enumeration order, so the result is identical for every jobs value.
inline OptimizationResult optimize_exhaustive(CostModel& model,
                                              int jobs = 1) {
  const std::vector<mswrap::SharingEvaluation> combos =
      feasible_combinations(model);

  OptimizationResult result;
  result.total_combinations = static_cast<int>(combos.size());

  std::vector<CombinationCost> costs(combos.size());
  parallel_for(combos.size(), jobs, [&](std::size_t i) {
    costs[i] = model.evaluate(combos[i].partition);
  });
  bool have_best = false;
  for (const CombinationCost& cost : costs) {
    if (!have_best || cost.total < result.best.total) {
      result.best = cost;
      have_best = true;
    }
  }
  result.evaluations = model.tam_runs();
  return result;
}

/// The Fig. 3 Cost_Optimizer heuristic, without lower-bound pruning.
inline OptimizationResult optimize_cost_heuristic(
    CostModel& model, const HeuristicOptions& options = {}) {
  require(options.epsilon >= 0.0, "epsilon must be non-negative");
  const std::vector<mswrap::SharingEvaluation> combos =
      feasible_combinations(model);

  // --- Line 1: group by degree of sharing (partition shape). ---
  std::map<std::vector<std::size_t>,
           std::vector<const mswrap::SharingEvaluation*>>
      groups;
  for (const mswrap::SharingEvaluation& e : combos) {
    groups[e.partition.shape()].push_back(&e);
  }

  OptimizationResult result;
  result.total_combinations = static_cast<int>(combos.size());

  // --- Lines 2-8: best preliminary-cost element per group. ---
  struct GroupState {
    const mswrap::SharingEvaluation* representative = nullptr;
    std::vector<const mswrap::SharingEvaluation*> members;
    CombinationCost rep_cost;
    bool eliminated = false;
  };
  std::vector<GroupState> states;
  for (auto& [shape, members] : groups) {
    GroupState state;
    state.members = members;
    double best_prelim = std::numeric_limits<double>::infinity();
    for (const mswrap::SharingEvaluation* e : members) {
      const double prelim = preliminary_cost(model.problem().weights, *e);
      if (prelim < best_prelim) {
        best_prelim = prelim;
        state.representative = e;
      }
    }
    check_invariant(state.representative != nullptr, "empty shape group");
    states.push_back(std::move(state));
  }

  // --- Lines 9-13: evaluate representatives with the TAM optimizer. ---
  parallel_for(states.size(), options.jobs, [&](std::size_t i) {
    states[i].rep_cost = model.evaluate(states[i].representative->partition);
  });
  double min_rep_cost = std::numeric_limits<double>::infinity();
  for (const GroupState& state : states) {
    min_rep_cost = std::min(min_rep_cost, state.rep_cost.total);
  }

  // --- Lines 14-17: eliminate groups beyond epsilon of the winner. ---
  for (GroupState& state : states) {
    state.eliminated = state.rep_cost.total > min_rep_cost + options.epsilon;
  }

  // --- Lines 18-19: fully evaluate surviving groups, return the best. ---
  // Fan out every surviving member's TAM run, then reduce serially in
  // (group, member) order, so ties resolve identically for every jobs
  // value.
  std::vector<const mswrap::SharingEvaluation*> survivors;
  for (const GroupState& state : states) {
    if (state.eliminated) continue;
    survivors.insert(survivors.end(), state.members.begin(),
                     state.members.end());
  }
  std::vector<CombinationCost> member_costs(survivors.size());
  parallel_for(survivors.size(), options.jobs, [&](std::size_t i) {
    member_costs[i] = model.evaluate(survivors[i]->partition);
  });

  bool have_best = false;
  std::size_t next_member = 0;
  for (const GroupState& state : states) {
    if (state.eliminated) {
      if (!have_best || state.rep_cost.total < result.best.total) {
        // An eliminated group's representative still competes; it was
        // evaluated and may beat surviving groups' members.
        result.best = state.rep_cost;
        have_best = true;
      }
      continue;
    }
    for (std::size_t m = 0; m < state.members.size(); ++m) {
      const CombinationCost& cost = member_costs[next_member++];
      if (!have_best || cost.total < result.best.total) {
        result.best = cost;
        have_best = true;
      }
    }
  }
  result.evaluations = model.tam_runs();
  return result;
}

}  // namespace msoc::plan::reference
