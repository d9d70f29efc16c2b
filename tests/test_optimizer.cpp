// The Fig. 3 Cost_Optimizer and the exhaustive baseline, as a single
// plan runs them: a one-width FrontierEngine.

#include <gtest/gtest.h>

#include <string>

#include "msoc/common/error.hpp"
#include "msoc/plan/frontier.hpp"
#include "msoc/soc/benchmarks.hpp"

namespace msoc::plan {
namespace {

FrontierOptions one_width(int width, double w_time) {
  FrontierOptions options;
  options.widths = {width};
  options.weights = {w_time, 1.0 - w_time};
  return options;
}

FrontierPoint solve(const soc::Soc& soc, const FrontierOptions& options) {
  FrontierEngine engine(soc, options);
  FrontierResult result = engine.run();
  EXPECT_EQ(result.points.size(), 1u);
  EXPECT_TRUE(result.points.front().ok()) << result.points.front().error;
  return result.points.front();
}

FrontierPoint exhaustive(const soc::Soc& soc, int width, double w_time,
                         int jobs = 1) {
  FrontierOptions options = one_width(width, w_time);
  options.exhaustive = true;
  options.jobs = jobs;
  return solve(soc, options);
}

FrontierPoint heuristic(const soc::Soc& soc, int width, double w_time,
                        double epsilon = 0.0, int jobs = 1) {
  FrontierOptions options = one_width(width, w_time);
  options.epsilon = epsilon;
  options.jobs = jobs;
  return solve(soc, options);
}

TEST(Exhaustive, Evaluates26Combinations) {
  const FrontierPoint r = exhaustive(soc::make_p93791m(), 32, 0.5);
  EXPECT_EQ(r.total_combinations, 26);
  // 25 paid runs: all-share is the free baseline.
  EXPECT_EQ(r.evaluations, 25);
  EXPECT_EQ(r.pruned, 0);
  EXPECT_GT(r.best.total, 0.0);
}

TEST(Heuristic, FarFewerEvaluations) {
  const FrontierPoint r = heuristic(soc::make_p93791m(), 32, 0.5);
  EXPECT_EQ(r.total_combinations, 26);
  const int n = r.evaluations + r.pruned;  // Fig. 3's N
  EXPECT_LT(n, 26);
  // At least the 4 paid group representatives must be evaluated.
  EXPECT_GE(r.evaluations, 4);
  EXPECT_GE(evaluation_reduction_percent(n, r.total_combinations), 30.0);
}

class WeightSweep : public ::testing::TestWithParam<double> {};

TEST_P(WeightSweep, HeuristicNearOptimal) {
  const double w_time = GetParam();
  const soc::Soc soc = soc::make_p93791m();
  const FrontierPoint best = exhaustive(soc, 32, w_time);
  const FrontierPoint h = heuristic(soc, 32, w_time);

  // The paper reports optimality in all but one case; allow a modest
  // gap (the packer's schedule noise can flip near-tied representatives).
  EXPECT_LE(h.best.total, best.best.total * 1.10 + 1e-9);
  EXPECT_LE(h.evaluations + h.pruned, best.evaluations);
}

INSTANTIATE_TEST_SUITE_P(Weights, WeightSweep,
                         ::testing::Values(0.25, 0.5, 0.75));

TEST(Heuristic, LargeEpsilonDegradesToExhaustive) {
  const soc::Soc soc = soc::make_p93791m();
  const FrontierPoint tight = heuristic(soc, 32, 0.5, 0.0);
  // epsilon = 1000: no group gets eliminated.
  const FrontierPoint all = heuristic(soc, 32, 0.5, 1000.0);

  // Fig. 3 then asks for every paid run; the lower bound may still
  // skip some of them without changing the winner.
  EXPECT_EQ(all.evaluations + all.pruned, 25);
  EXPECT_LE(tight.evaluations + tight.pruned, all.evaluations + all.pruned);

  const FrontierPoint best = exhaustive(soc, 32, 0.5);
  EXPECT_EQ(all.best.total, best.best.total);
}

TEST(Heuristic, NegativeEpsilonRejected) {
  const soc::Soc soc = soc::make_p93791m();
  FrontierOptions options = one_width(32, 0.5);
  options.epsilon = -1.0;
  EXPECT_THROW(FrontierEngine(soc, options), InfeasibleError);
}

TEST(Heuristic, AreaHeavyWeightsPreferMoreSharing) {
  const soc::Soc soc = soc::make_p93791m();
  const FrontierPoint t = heuristic(soc, 64, 0.95);
  const FrontierPoint a = heuristic(soc, 64, 0.05);

  // With area dominating, the winner has at most as many wrappers as the
  // time-dominated winner.
  EXPECT_LE(a.best.partition.wrapper_count(),
            t.best.partition.wrapper_count());
}

class ParallelDeterminism : public ::testing::TestWithParam<int> {};

void expect_identical(const FrontierPoint& serial,
                      const FrontierPoint& parallel,
                      const std::string& what) {
  EXPECT_EQ(serial.best.partition, parallel.best.partition) << what;
  EXPECT_EQ(serial.best.label, parallel.best.label) << what;
  EXPECT_EQ(serial.best.test_time, parallel.best.test_time) << what;
  EXPECT_EQ(serial.best.total, parallel.best.total) << what;
  EXPECT_EQ(serial.best.c_time, parallel.best.c_time) << what;
  EXPECT_EQ(serial.best.c_area, parallel.best.c_area) << what;
  EXPECT_EQ(serial.t_max, parallel.t_max) << what;
  EXPECT_EQ(serial.evaluations, parallel.evaluations) << what;
  EXPECT_EQ(serial.pruned, parallel.pruned) << what;
  EXPECT_EQ(serial.total_combinations, parallel.total_combinations) << what;
}

TEST_P(ParallelDeterminism, ExhaustiveBitIdenticalAcrossJobs) {
  // --jobs 1 and --jobs N must agree bit-for-bit on both benchmark SOCs:
  // best partition, cost, test time, and the evaluation count.
  const int jobs = GetParam();
  for (const soc::Soc& soc : {soc::make_p93791m(), soc::make_d695m()}) {
    expect_identical(exhaustive(soc, 32, 0.5, 1),
                     exhaustive(soc, 32, 0.5, jobs), soc.name());
  }
}

TEST_P(ParallelDeterminism, HeuristicBitIdenticalAcrossJobs) {
  const int jobs = GetParam();
  for (const soc::Soc& soc : {soc::make_p93791m(), soc::make_d695m()}) {
    expect_identical(heuristic(soc, 32, 0.5, 0.0, 1),
                     heuristic(soc, 32, 0.5, 0.0, jobs), soc.name());
  }
}

INSTANTIATE_TEST_SUITE_P(Jobs, ParallelDeterminism,
                         ::testing::Values(2, 4, 0));

TEST(EvaluationReduction, Formula) {
  EXPECT_NEAR(evaluation_reduction_percent(10, 26), 61.5, 0.1);
  EXPECT_NEAR(evaluation_reduction_percent(7, 26), 73.1, 0.1);
  EXPECT_EQ(evaluation_reduction_percent(0, 0), 0.0);
}

TEST(Optimizers, RespectSharingPolicy) {
  const soc::Soc soc = soc::make_p93791m();
  FrontierOptions options = one_width(32, 0.5);
  options.exhaustive = true;
  // A policy that still accepts every Table-2 pairing (all 8-bit cores,
  // gap never reached) must keep all 26 combinations.
  options.policy.max_fs_ratio = 1.0;
  options.policy.min_resolution_gap = 99;
  EXPECT_EQ(solve(soc, options).total_combinations, 26);
}

}  // namespace
}  // namespace msoc::plan
