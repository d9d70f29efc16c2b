// End-to-end integration tests: the full paper pipeline from SOC
// description to optimized mixed-signal test plan, plus the §5 wrapper
// experiment, exercised together the way examples/benches use them.

#include <gtest/gtest.h>

#include "msoc/analog/experiment.hpp"
#include "msoc/plan/frontier.hpp"
#include "msoc/plan/report.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/soc/itc02.hpp"
#include "msoc/testsim/replay.hpp"

namespace msoc {
namespace {

/// One width through the engine a single plan runs.
plan::FrontierOptions one_width(int width, bool exhaustive = false) {
  plan::FrontierOptions options;
  options.widths = {width};
  options.exhaustive = exhaustive;
  return options;
}

TEST(Integration, FullPipelineOnP93791m) {
  // 1. Load the benchmark through the file format (round trip).
  const soc::Soc soc =
      soc::parse_soc_string(soc::write_soc_string(soc::make_p93791m()));

  // 2. Optimize at W=32 with balanced weights.
  plan::FrontierEngine engine(soc, one_width(32));
  const plan::FrontierPoint point = engine.run().points.front();
  ASSERT_TRUE(point.ok()) << point.error;

  // 3. The winning plan's schedule must replay cleanly.
  const tam::Schedule schedule = engine.schedule(point);
  const testsim::ReplayReport report = testsim::replay(soc, schedule);
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_EQ(schedule.makespan(), point.best.test_time);

  // 4. Cost structure sanity.
  EXPECT_GT(point.best.total, 0.0);
  EXPECT_LE(point.best.c_time, 100.0 + 1e-9);
  EXPECT_LE(point.best.c_area, 100.0 + 1e-9);
  EXPECT_LT(point.evaluations + point.pruned, 26);
}

TEST(Integration, HeuristicMatchesExhaustiveAtWidth64) {
  const soc::Soc soc = soc::make_p93791m();
  plan::FrontierEngine exhaustive(soc, one_width(64, true));
  plan::FrontierEngine heuristic(soc, one_width(64));
  EXPECT_LE(heuristic.run().points.front().best.total,
            exhaustive.run().points.front().best.total * 1.05);
}

TEST(Integration, MixedSignalD695Variant) {
  // d695 plus two analog cores: a smaller mixed-signal SOC end to end.
  soc::Soc soc = soc::make_d695();
  auto analog = soc::table2_analog_cores();
  soc.add_analog(analog[2]);  // C: CODEC
  soc.add_analog(analog[4]);  // E: amplifier
  soc.set_name("d695m");

  plan::FrontierEngine engine(soc, one_width(16, true));
  const plan::FrontierPoint point = engine.run().points.front();
  ASSERT_TRUE(point.ok()) << point.error;

  const tam::Schedule schedule = engine.schedule(point);
  EXPECT_TRUE(testsim::replay(soc, schedule).clean());
  // Two distinct cores: share or not — 1 combination each... the share
  // combination plus standalone = C and E can only form {C,E} or {C}{E}.
  EXPECT_EQ(point.total_combinations, 1);  // only {C,E} (no-share excluded)
}

TEST(Integration, Table3AllShareColumnIs100Everywhere) {
  const soc::Soc soc = soc::make_p93791m();
  const plan::Table3 t3 = plan::make_table3(soc, {24, 40});
  for (const plan::Table3Row& row : t3.rows) {
    if (row.wrapper_count == 1) {
      for (double c : row.c_time) EXPECT_NEAR(c, 100.0, 1e-9);
    }
  }
}

TEST(Integration, Fig5AndPlanningAgreeOnWrapperTiming) {
  // The f_c test of core A runs at 1.5 MHz on 4 TAM wires in Table 2;
  // the behavioral wrapper must be able to sustain that configuration.
  const soc::Soc soc = soc::make_p93791m();
  const soc::AnalogCore& a = soc.analog_by_name("A");
  const soc::AnalogTestSpec* fc = nullptr;
  for (const auto& t : a.tests) {
    if (t.name == "f_c") fc = &t;
  }
  ASSERT_NE(fc, nullptr);

  analog::WrapperConfig config;
  config.tam_width = fc->tam_width;
  const analog::AnalogTestWrapper wrapper(config);
  analog::TestConfiguration test;
  test.sampling_frequency = fc->f_sample;
  test.sample_count = 4096;
  EXPECT_TRUE(wrapper.timing(test).io_rate_feasible);
}

TEST(Integration, BasebandTestsAreWrapperStreamable) {
  // The low/mid-frequency tests of cores A, B and C — the application
  // domain §1 targets — must satisfy the wrapper's serial-register rate
  // constraint at the 50 MHz TAM clock.  Cores D and E carry RF-rate
  // tests (26-78 MHz sampling) that are captured into the wrapper's
  // registers and read back subsampled, so they are exempt.
  for (const soc::AnalogCore& core : soc::table2_analog_cores()) {
    if (core.name == "D" || core.name == "E") continue;
    for (const soc::AnalogTestSpec& spec : core.tests) {
      analog::WrapperConfig config;
      config.tam_width = spec.tam_width;
      const analog::AnalogTestWrapper wrapper(config);
      analog::TestConfiguration test;
      test.sampling_frequency = spec.f_sample;
      test.sample_count = 64;
      EXPECT_TRUE(wrapper.timing(test).io_rate_feasible)
          << core.name << "." << spec.name;
    }
  }
}

TEST(Integration, DeterministicEndToEnd) {
  const soc::Soc soc = soc::make_p93791m();
  plan::FrontierEngine e1(soc, one_width(48));
  plan::FrontierEngine e2(soc, one_width(48));
  const plan::FrontierPoint r1 = e1.run().points.front();
  const plan::FrontierPoint r2 = e2.run().points.front();
  EXPECT_EQ(r1.best.label, r2.best.label);
  EXPECT_DOUBLE_EQ(r1.best.total, r2.best.total);
  EXPECT_EQ(r1.evaluations, r2.evaluations);
  EXPECT_EQ(r1.pruned, r2.pruned);
}

}  // namespace
}  // namespace msoc
