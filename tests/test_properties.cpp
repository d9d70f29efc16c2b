// Cross-module property sweeps: invariants that must hold over the whole
// configuration space, not just hand-picked cases.

#include <gtest/gtest.h>

#include "msoc/mswrap/sharing.hpp"
#include "msoc/plan/frontier.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/soc/itc02.hpp"
#include "msoc/tam/packing.hpp"
#include "msoc/testsim/replay.hpp"

namespace msoc {
namespace {

class AllPartitionsAtWidth : public ::testing::TestWithParam<int> {};

TEST_P(AllPartitionsAtWidth, EveryCombinationSchedulesAndReplaysCleanly) {
  // For every one of the paper's 26 sharing combinations, the packer
  // must produce a valid schedule that the independent replay accepts,
  // with a makespan between the lower bound and the all-share baseline.
  const int width = GetParam();
  const soc::Soc soc = soc::make_p93791m();
  const Cycles baseline =
      tam::schedule_soc(soc, width, tam::all_share_partition(soc))
          .makespan();

  for (const mswrap::SharingEvaluation& e :
       mswrap::evaluate_combinations(soc.analog_cores())) {
    const tam::AnalogPartition partition =
        mswrap::to_analog_partition(soc.analog_cores(), e.partition);
    const tam::Schedule schedule =
        tam::schedule_soc(soc, width, partition);
    EXPECT_TRUE(tam::validate_schedule(schedule).empty()) << e.label;
    EXPECT_TRUE(testsim::replay(soc, schedule).clean()) << e.label;
    EXPECT_GE(schedule.makespan(),
              tam::schedule_lower_bound(soc, width, partition))
        << e.label;
    // Monotonicity: any all-share schedule is feasible for every
    // partition, and the packer races the fully-serialized arrangement,
    // so no partition may schedule past the all-share baseline.
    EXPECT_LE(schedule.makespan(), baseline) << e.label;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, AllPartitionsAtWidth,
                         ::testing::Values(16, 40));

class LatticeMonotoneAtWidth : public ::testing::TestWithParam<int> {};

TEST_P(LatticeMonotoneAtWidth, NoPartitionPacksWorseThanAllShare) {
  // Regression for the clamp removal, over the FULL partition lattice
  // (52 partitions of 5 cores), not just the paper's 26 combinations:
  // before the packer's serialized fallback, up to 18 of them packed
  // past the baseline at some widths.
  const int width = GetParam();
  const soc::Soc soc = soc::make_p93791m();
  const Cycles baseline =
      tam::schedule_soc(soc, width, tam::all_share_partition(soc))
          .makespan();

  mswrap::EnumerationOptions all;
  all.mode = mswrap::EnumerationMode::kAllPartitions;
  all.reduce_symmetry = false;
  all.include_no_sharing = true;
  for (const mswrap::Partition& p :
       mswrap::enumerate_partitions(soc.analog_cores(), all)) {
    const tam::Schedule schedule = tam::schedule_soc(
        soc, width, mswrap::to_analog_partition(soc.analog_cores(), p));
    EXPECT_LE(schedule.makespan(), baseline)
        << p.to_string({"A", "B", "C", "D", "E"}, true);
    EXPECT_TRUE(tam::validate_schedule(schedule).empty())
        << p.to_string({"A", "B", "C", "D", "E"}, true);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, LatticeMonotoneAtWidth,
                         ::testing::Values(20, 24, 48));

class SyntheticRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SyntheticRoundTrip, SocFormatRoundTripsRandomSocs) {
  soc::SyntheticSocParams params;
  params.digital_cores = 10;
  params.analog_cores = 3;
  params.seed = GetParam();
  const soc::Soc original = soc::make_synthetic_soc(params);
  const soc::Soc back =
      soc::parse_soc_string(soc::write_soc_string(original));
  EXPECT_EQ(back.name(), original.name());
  ASSERT_EQ(back.digital_count(), original.digital_count());
  ASSERT_EQ(back.analog_count(), original.analog_count());
  for (std::size_t i = 0; i < original.digital_count(); ++i) {
    EXPECT_EQ(back.digital_cores()[i].scan_chain_lengths,
              original.digital_cores()[i].scan_chain_lengths);
    EXPECT_EQ(back.digital_cores()[i].patterns,
              original.digital_cores()[i].patterns);
  }
  for (std::size_t i = 0; i < original.analog_count(); ++i) {
    EXPECT_TRUE(back.analog_cores()[i].tests_equivalent(
        original.analog_cores()[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyntheticRoundTrip,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

class MakespanMonotoneInWidth
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MakespanMonotoneInWidth, WiderTamNeverSlower) {
  soc::SyntheticSocParams params;
  params.digital_cores = 10;
  params.analog_cores = 2;
  params.seed = GetParam();
  const soc::Soc soc = soc::make_synthetic_soc(params);
  const tam::AnalogPartition partition = tam::singleton_partition(soc);

  // Minimum feasible width: the widest analog requirement.
  int min_width = 1;
  for (const soc::AnalogCore& c : soc.analog_cores()) {
    min_width = std::max(min_width, c.tam_width());
  }
  Cycles prev = 0;
  for (int w = min_width; w <= min_width + 48; w += 12) {
    const Cycles m = tam::schedule_soc(soc, w, partition).makespan();
    if (prev != 0) {
      // Allow 1 % heuristic noise against strict monotonicity.
      EXPECT_LE(static_cast<double>(m), 1.01 * static_cast<double>(prev))
          << "W=" << w;
    }
    prev = m;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MakespanMonotoneInWidth,
                         ::testing::Values(3, 14, 159));

TEST(CostProperties, WinnerTotalInterpolatesBetweenExtremes) {
  // Eq. 2 is a convex blend of C_time and C_A, so every width's winner
  // sits between its own two terms, whatever the weights.
  const soc::Soc soc = soc::make_p93791m();
  for (const double w_time : {0.1, 0.5, 0.9}) {
    plan::FrontierOptions options;
    options.widths = {24, 32, 48};
    options.weights = {w_time, 1.0 - w_time};
    for (const plan::FrontierPoint& point :
         plan::FrontierEngine(soc, options).run().points) {
      ASSERT_TRUE(point.ok()) << point.error;
      const plan::CombinationCost& cost = point.best;
      EXPECT_GE(cost.total, std::min(cost.c_time, cost.c_area) - 1e-9);
      EXPECT_LE(cost.total, std::max(cost.c_time, cost.c_area) + 1e-9);
    }
  }
}

TEST(SharingEvaluationProperties, LbNeverExceedsTotal) {
  for (const mswrap::SharingEvaluation& e :
       mswrap::evaluate_combinations(soc::table2_analog_cores())) {
    EXPECT_LE(e.analog_lb_cycles, soc::table2_total_cycles()) << e.label;
    EXPECT_GE(e.analog_lb_normalized, 0.0);
    EXPECT_LE(e.analog_lb_normalized, 100.0 + 1e-9);
  }
}

TEST(SharingEvaluationProperties, MergingGroupsRaisesLb) {
  // Coarsening a partition (merging two groups) can only increase the
  // busiest-wrapper lower bound.
  const auto cores = soc::table2_analog_cores();
  const mswrap::Partition fine({{0, 1}, {2, 3}, {4}});
  const mswrap::Partition coarse({{0, 1, 2, 3}, {4}});
  EXPECT_LE(mswrap::analog_time_lower_bound(cores, fine),
            mswrap::analog_time_lower_bound(cores, coarse));
}

}  // namespace
}  // namespace msoc
