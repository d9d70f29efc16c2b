#include "msoc/plan/cost_model.hpp"

#include <gtest/gtest.h>

#include "msoc/common/error.hpp"
#include "msoc/plan/pipeline.hpp"
#include "msoc/soc/benchmarks.hpp"

namespace msoc::plan {
namespace {

PlanningProblem problem_for(const soc::Soc& soc, int width = 32,
                            double w_time = 0.5) {
  PlanningProblem p;
  p.soc = &soc;
  p.tam_width = width;
  p.weights.time = w_time;
  p.weights.area = 1.0 - w_time;
  return p;
}

TEST(Weights, MustSumToOne) {
  CostWeights w;
  w.time = 0.6;
  w.area = 0.6;
  EXPECT_THROW(w.validate(), InfeasibleError);
  w.time = -0.1;
  w.area = 1.1;
  EXPECT_THROW(w.validate(), InfeasibleError);
  w.time = 0.25;
  w.area = 0.75;
  EXPECT_NO_THROW(w.validate());
}

TEST(Problem, Validation) {
  PlanningProblem p;
  EXPECT_THROW(p.validate(), InfeasibleError);  // no SOC
  const soc::Soc digital = soc::make_p93791();
  p = problem_for(digital);
  EXPECT_THROW(p.validate(), InfeasibleError);  // no analog cores
  const soc::Soc ms = soc::make_p93791m();
  p = problem_for(ms);
  EXPECT_NO_THROW(p.validate());
  p.tam_width = 0;
  EXPECT_THROW(p.validate(), InfeasibleError);
}

TEST(CostModelEval, AllShareIsTheBaseline) {
  const soc::Soc soc = soc::make_p93791m();
  PlanningProblem p = problem_for(soc);
  CostModel model(p);
  const mswrap::Partition all_share({{0, 1, 2, 3, 4}});
  const CombinationCost cost = model.evaluate(all_share);
  EXPECT_NEAR(cost.c_time, 100.0, 1e-9);
  EXPECT_EQ(cost.test_time, model.t_max());
}

TEST(CostModelEval, CTimeNeverExceeds100) {
  const soc::Soc soc = soc::make_p93791m();
  PlanningProblem p = problem_for(soc, 48);
  CostModel model(p);
  for (const auto& e : mswrap::evaluate_combinations(soc.analog_cores())) {
    EXPECT_LE(model.evaluate(e.partition).c_time, 100.0 + 1e-9) << e.label;
  }
}

TEST(CostModelEval, TotalIsWeightedSum) {
  const soc::Soc soc = soc::make_p93791m();
  PlanningProblem p = problem_for(soc, 32, 0.75);
  CostModel model(p);
  const mswrap::Partition pair({{0, 1}, {2}, {3}, {4}});
  const CombinationCost cost = model.evaluate(pair);
  EXPECT_NEAR(cost.total, 0.75 * cost.c_time + 0.25 * cost.c_area, 1e-9);
}

TEST(CostModelEval, MemoizationCountsOnce) {
  const soc::Soc soc = soc::make_p93791m();
  PlanningProblem p = problem_for(soc);
  CostModel model(p);
  const mswrap::Partition pair({{0, 1}, {2}, {3}, {4}});
  (void)model.evaluate(pair);
  (void)model.evaluate(pair);
  EXPECT_EQ(model.tam_runs(), 1);
}

TEST(CostModelEval, AllShareIsFree) {
  // The all-share evaluation is the normalization baseline; it must not
  // count as a paid TAM run (the paper's N accounting).
  const soc::Soc soc = soc::make_p93791m();
  PlanningProblem p = problem_for(soc);
  CostModel model(p);
  (void)model.t_max();
  const mswrap::Partition all_share({{0, 1, 2, 3, 4}});
  (void)model.evaluate(all_share);
  EXPECT_EQ(model.tam_runs(), 0);
}

TEST(CostModelEval, PartitionCellsCarryEq3) {
  const soc::Soc soc = soc::make_p93791m();
  const CostWeights weights{0.25, 0.75};
  const PartitionSpace space(soc, weights, mswrap::WrapperAreaModel{},
                             mswrap::SharingPolicy{},
                             mswrap::EnumerationOptions{});
  ASSERT_FALSE(space.cells.empty());
  for (const PartitionCell& cell : space.cells) {
    EXPECT_EQ(cell.prelim,
              0.25 * cell.evaluation.analog_lb_normalized +
                  0.75 * cell.evaluation.area_cost)
        << cell.evaluation.label;
  }
  mswrap::SharingEvaluation e;
  e.analog_lb_normalized = 40.0;
  e.area_cost = 80.0;
  EXPECT_NEAR(preliminary_cost(weights, e), 0.25 * 40.0 + 0.75 * 80.0,
              1e-12);
}

TEST(CostModelEval, ScheduleForIsValid) {
  const soc::Soc soc = soc::make_p93791m();
  PlanningProblem p = problem_for(soc);
  CostModel model(p);
  const mswrap::Partition pair({{3, 4}, {0}, {1}, {2}});
  const tam::Schedule schedule = model.schedule_for(pair);
  EXPECT_TRUE(tam::validate_schedule(schedule).empty());
}

}  // namespace
}  // namespace msoc::plan
