#pragma once
// The paper's test-cost model (Eq. 2 and Eq. 3).
//
//   C = w_T * C_time + w_A * C_A                          (Eq. 2)
//
// C_time = 100 * T(W, partition) / T_max(W), where T_max is the SOC test
// time when ALL analog cores share a single wrapper — the most
// constrained schedule, used as the normalization baseline.  C_A is the
// Eq.(1) area-overhead cost from the mswrap layer.
//
// The preliminary cost (Eq. 3) replaces the expensive C_time with the
// free analog lower bound:  Prelim = w_T * LB_norm + w_A * C_A.  It is
// what the Cost_Optimizer heuristic picks group representatives by.

#include <string>

#include "msoc/common/units.hpp"
#include "msoc/mswrap/partition.hpp"
#include "msoc/mswrap/sharing.hpp"

namespace msoc::plan {

/// Weights of Eq. 2; must be non-negative and sum to 1.
struct CostWeights {
  double time = 0.5;
  double area = 0.5;

  void validate() const;

  /// Eq. 2: C = w_T * C_time + w_A * C_A.
  [[nodiscard]] double total(double c_time, double c_area) const {
    return time * c_time + area * c_area;
  }
};

/// Eq. 2's time term: C_time = 100 * T / T_max.
[[nodiscard]] inline double time_cost(Cycles test_time, Cycles t_max) {
  return 100.0 * static_cast<double>(test_time) /
         static_cast<double>(t_max);
}

/// Eq. 3: Prelim = w_T * LB_norm + w_A * C_A, from quantities known
/// before any TAM run.
[[nodiscard]] double preliminary_cost(
    const CostWeights& weights, const mswrap::SharingEvaluation& evaluation);

/// Full evaluation of one sharing combination.
struct CombinationCost {
  mswrap::Partition partition;
  std::string label;
  Cycles test_time = 0;    ///< Schedule makespan from the TAM optimizer.
  double c_time = 0.0;     ///< 100 * T / T_max.
  double c_area = 0.0;     ///< Eq.(1).
  double total = 0.0;      ///< Eq.(2).
};

/// Eq. 2 for one combination that packed in `test_time` against the
/// all-share baseline `t_max`; `c_area` is its Eq. 1 area cost, which
/// callers already hold.  Throws LogicError when the combination packed
/// worse than the baseline: any all-share schedule is feasible for every
/// partition (it satisfies a superset of the serialization constraints),
/// and the packer guarantees as much via its serialized fallback.
[[nodiscard]] CombinationCost combination_cost(
    const CostWeights& weights, const mswrap::Partition& partition,
    std::string label, Cycles test_time, Cycles t_max, double c_area);

}  // namespace msoc::plan
