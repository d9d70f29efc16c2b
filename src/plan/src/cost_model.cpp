#include "msoc/plan/cost_model.hpp"

#include <cmath>
#include <utility>

#include "msoc/common/error.hpp"

namespace msoc::plan {

void CostWeights::validate() const {
  require(time >= 0.0 && area >= 0.0, "cost weights must be non-negative");
  require(std::fabs(time + area - 1.0) < 1e-9,
          "cost weights must sum to 1");
}

double preliminary_cost(const CostWeights& weights,
                        const mswrap::SharingEvaluation& evaluation) {
  return weights.total(evaluation.analog_lb_normalized, evaluation.area_cost);
}

CombinationCost combination_cost(const CostWeights& weights,
                                 const mswrap::Partition& partition,
                                 std::string label, Cycles test_time,
                                 Cycles t_max, double c_area) {
  if (test_time > t_max) {
    check_invariant(false, "partition " + label +
                               " packed worse than the all-share baseline");
  }
  CombinationCost cost;
  cost.partition = partition;
  cost.label = std::move(label);
  cost.test_time = test_time;
  cost.c_time = time_cost(test_time, t_max);
  cost.c_area = c_area;
  cost.total = weights.total(cost.c_time, c_area);
  return cost;
}

}  // namespace msoc::plan
