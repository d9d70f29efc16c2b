#include "msoc/plan/cost_model.hpp"

#include <gtest/gtest.h>

#include "msoc/common/error.hpp"
#include "msoc/plan/frontier.hpp"
#include "msoc/plan/pipeline.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "reference_cost_model.hpp"

namespace msoc::plan {
namespace {

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

TEST(CombinationCostEq2, TotalIsWeightedSum) {
  const mswrap::Partition pair({{0, 1}, {2}, {3}, {4}});
  const CombinationCost cost =
      combination_cost({0.75, 0.25}, pair, "{A,B}", 900, 1000, 40.0);
  EXPECT_EQ(cost.partition, pair);
  EXPECT_EQ(cost.label, "{A,B}");
  EXPECT_EQ(cost.test_time, 900);
  EXPECT_DOUBLE_EQ(cost.c_time, 90.0);
  EXPECT_EQ(cost.c_area, 40.0);
  EXPECT_DOUBLE_EQ(cost.total, 0.75 * 90.0 + 0.25 * 40.0);
}

TEST(CombinationCostEq2, BaselineIsExactly100AndNeverExceeded) {
  const mswrap::Partition all_share({{0, 1, 2, 3, 4}});
  EXPECT_EQ(combination_cost({}, all_share, "{A,B,C,D,E}", 1234, 1234, 0.0)
                .c_time,
            100.0);
  // Packing past the all-share baseline breaks the packer's
  // serialized-fallback guarantee: a logic error, never a clamp.
  EXPECT_THROW((void)combination_cost({}, all_share, "{A,B,C,D,E}", 1235,
                                      1234, 0.0),
               LogicError);
}

TEST(PartitionSpaceCells, CarryEq3) {
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

// --- Stage 2's evaluation counting, on the engine. ---

FrontierResult one_width(const soc::Soc& soc, int width, bool exhaustive,
                         double w_time = 0.5) {
  FrontierOptions options;
  options.widths = {width};
  options.exhaustive = exhaustive;
  options.weights = {w_time, 1.0 - w_time};
  return FrontierEngine(soc, options).run();
}

TEST(EngineEvaluations, AllShareBaselineIsFree) {
  // A cold exhaustive cell packs every combination except the
  // all-share one: that is the T_max baseline, never a paid TAM run
  // (the paper's N accounting).
  const soc::Soc soc = soc::make_p93791m();
  const FrontierPoint point = one_width(soc, 32, /*exhaustive=*/true)
                                  .points.front();
  ASSERT_TRUE(point.ok()) << point.error;
  EXPECT_EQ(point.total_combinations, 26);
  EXPECT_EQ(point.evaluations, point.total_combinations - 1);
}

TEST(EngineEvaluations, WinnerTotalIsWeightedSum) {
  const soc::Soc soc = soc::make_p93791m();
  const FrontierPoint point =
      one_width(soc, 32, /*exhaustive=*/false, 0.75).points.front();
  ASSERT_TRUE(point.ok()) << point.error;
  EXPECT_DOUBLE_EQ(point.best.total,
                   0.75 * point.best.c_time + 0.25 * point.best.c_area);
}

// --- The reference model (tests/reference_cost_model.hpp). ---

reference::PlanningProblem problem_for(const soc::Soc& soc) {
  reference::PlanningProblem p;
  p.soc = &soc;
  return p;
}

TEST(ReferenceCostModel, MemoizationCountsOnce) {
  const soc::Soc soc = soc::make_p93791m();
  reference::CostModel model(problem_for(soc));
  const mswrap::Partition pair({{0, 1}, {2}, {3}, {4}});
  (void)model.evaluate(pair);
  (void)model.evaluate(pair);
  EXPECT_EQ(model.tam_runs(), 1);
}

TEST(ReferenceCostModel, AllShareIsFreeAndTheBaseline) {
  const soc::Soc soc = soc::make_p93791m();
  reference::CostModel model(problem_for(soc));
  const mswrap::Partition all_share({{0, 1, 2, 3, 4}});
  const CombinationCost cost = model.evaluate(all_share);
  EXPECT_EQ(cost.c_time, 100.0);
  EXPECT_EQ(cost.test_time, model.t_max());
  EXPECT_EQ(model.tam_runs(), 0);
}

TEST(ReferenceCostModel, ScheduleForIsValid) {
  const soc::Soc soc = soc::make_p93791m();
  reference::CostModel model(problem_for(soc));
  const mswrap::Partition pair({{3, 4}, {0}, {1}, {2}});
  const tam::Schedule schedule = model.schedule_for(pair);
  EXPECT_TRUE(tam::validate_schedule(schedule).empty());
}

}  // namespace
}  // namespace msoc::plan
