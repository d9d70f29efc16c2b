// Property tests pinning the closed-form wrapper kernel to the per-cell
// Design_wrapper it replaced.  reference_design_wrapper below is a
// verbatim port of that implementation: Best-Fit-Decreasing over the wrapper
// chains, then every functional cell padded onto the shortest chain by a
// min_element scan.  The kernel water-fills the cells instead; the claim
// is that every WrapperDesign field (chain ids, scan lengths, per-chain
// input and output cells, scan_in, scan_out) and every Pareto staircase
// come out identical, which these tests check on seeded random cores and
// on every p93791 and d695 core.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/common/rng.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/wrapper/wrapper_design.hpp"

namespace msoc::wrapper {
namespace {

/// The pre-kernel design_wrapper: O(cells * width) padding.
WrapperDesign reference_design_wrapper(const soc::DigitalCore& core,
                                       int width) {
  require(width >= 1, "wrapper width must be >= 1");
  core.validate();

  WrapperDesign design;
  design.width = width;
  design.chains.assign(static_cast<std::size_t>(width), WrapperChain{});

  std::vector<int> order(core.scan_chain_lengths.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&core](int a, int b) {
    const int la = core.scan_chain_lengths[static_cast<std::size_t>(a)];
    const int lb = core.scan_chain_lengths[static_cast<std::size_t>(b)];
    if (la != lb) return la > lb;
    return a < b;
  });
  for (int id : order) {
    auto shortest = std::min_element(
        design.chains.begin(), design.chains.end(),
        [](const WrapperChain& a, const WrapperChain& b) {
          return a.scan_length < b.scan_length;
        });
    shortest->scan_chain_ids.push_back(id);
    shortest->scan_length +=
        core.scan_chain_lengths[static_cast<std::size_t>(id)];
  }

  const int total_inputs = core.inputs + core.bidirs;
  const int total_outputs = core.outputs + core.bidirs;
  for (int i = 0; i < total_inputs; ++i) {
    auto shortest = std::min_element(
        design.chains.begin(), design.chains.end(),
        [](const WrapperChain& a, const WrapperChain& b) {
          return a.scan_in_length() < b.scan_in_length();
        });
    ++shortest->input_cells;
  }
  for (int i = 0; i < total_outputs; ++i) {
    auto shortest = std::min_element(
        design.chains.begin(), design.chains.end(),
        [](const WrapperChain& a, const WrapperChain& b) {
          return a.scan_out_length() < b.scan_out_length();
        });
    ++shortest->output_cells;
  }

  for (const WrapperChain& c : design.chains) {
    design.scan_in = std::max(design.scan_in, c.scan_in_length());
    design.scan_out = std::max(design.scan_out, c.scan_out_length());
  }
  return design;
}

/// The staircase by brute force: the reference design at every width.
std::vector<ParetoPoint> reference_pareto_widths(
    const soc::DigitalCore& core, int max_width) {
  std::vector<ParetoPoint> points;
  for (int w = 1; w <= max_width; ++w) {
    const Cycles t =
        reference_design_wrapper(core, w).test_time(core.patterns);
    if (points.empty() || t < points.back().time) points.push_back({w, t});
  }
  return points;
}

void expect_same_design(const WrapperDesign& got, const WrapperDesign& want,
                        const soc::DigitalCore& core) {
  SCOPED_TRACE("core " + core.name + " width " + std::to_string(want.width));
  ASSERT_EQ(got.width, want.width);
  EXPECT_EQ(got.scan_in, want.scan_in);
  EXPECT_EQ(got.scan_out, want.scan_out);
  ASSERT_EQ(got.chains.size(), want.chains.size());
  for (std::size_t c = 0; c < want.chains.size(); ++c) {
    SCOPED_TRACE("chain " + std::to_string(c));
    EXPECT_EQ(got.chains[c].scan_chain_ids, want.chains[c].scan_chain_ids);
    EXPECT_EQ(got.chains[c].scan_length, want.chains[c].scan_length);
    EXPECT_EQ(got.chains[c].input_cells, want.chains[c].input_cells);
    EXPECT_EQ(got.chains[c].output_cells, want.chains[c].output_cells);
  }
}

void expect_same_pareto_widths(const soc::DigitalCore& core, int max_width) {
  const std::vector<ParetoPoint> got = pareto_widths(core, max_width);
  const std::vector<ParetoPoint> want =
      reference_pareto_widths(core, max_width);
  ASSERT_EQ(got.size(), want.size()) << core.name;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].width, want[i].width) << core.name << " point " << i;
    EXPECT_EQ(got[i].time, want[i].time) << core.name << " point " << i;
  }
}

/// A random core whose scan chains repeat a few lengths, so BFD and the
/// padding both hit ties between equal chains.
soc::DigitalCore random_core(Rng& rng, int index) {
  soc::DigitalCore core;
  core.id = index;
  core.name = "random" + std::to_string(index);
  const int distinct = rng.uniform_int(1, 6);
  std::vector<int> lengths;
  for (int i = 0; i < distinct; ++i) {
    lengths.push_back(rng.uniform_int(1, 400));
  }
  const int chains = rng.uniform_int(0, 100);
  for (int i = 0; i < chains; ++i) {
    core.scan_chain_lengths.push_back(
        lengths[static_cast<std::size_t>(rng.uniform_int(0, distinct - 1))]);
  }
  core.inputs = rng.uniform_int(0, 1000);
  core.outputs = rng.uniform_int(0, 1000);
  core.bidirs = rng.uniform_int(0, 1000);
  if (chains == 0 && core.inputs + core.outputs + core.bidirs == 0) {
    core.inputs = 1;
  }
  core.patterns = rng.uniform_int(1, 500);
  return core;
}

TEST(WrapperEquivalence, RandomCoresMatchThePerCellReference) {
  Rng rng(20051);
  for (int i = 0; i < 300; ++i) {
    const soc::DigitalCore core = random_core(rng, i);
    const int width = rng.uniform_int(1, 80);
    expect_same_design(design_wrapper(core, width),
                       reference_design_wrapper(core, width), core);
  }
}

TEST(WrapperEquivalence, RandomCoreStaircasesMatchTheBruteForce) {
  Rng rng(9731);
  for (int i = 0; i < 60; ++i) {
    expect_same_pareto_widths(random_core(rng, i), rng.uniform_int(1, 80));
  }
}

TEST(WrapperEquivalence, EdgeShapesMatchThePerCellReference) {
  // No scan chains, cells only; more wrapper chains than scan chains;
  // all chains equal; one very long chain over many short ones.
  std::vector<soc::DigitalCore> cores(4);
  cores[0].inputs = 7;
  cores[0].outputs = 3;
  cores[1].scan_chain_lengths = {5, 5};
  cores[1].bidirs = 11;
  cores[2].scan_chain_lengths = std::vector<int>(16, 32);
  cores[2].inputs = 31;
  cores[2].outputs = 33;
  cores[3].scan_chain_lengths = {1000, 3, 3, 3, 2, 1};
  cores[3].inputs = 900;
  cores[3].outputs = 1;
  for (std::size_t i = 0; i < cores.size(); ++i) {
    cores[i].name = "edge" + std::to_string(i);
    cores[i].patterns = 10;
    for (int w = 1; w <= 40; ++w) {
      expect_same_design(design_wrapper(cores[i], w),
                         reference_design_wrapper(cores[i], w), cores[i]);
    }
    expect_same_pareto_widths(cores[i], 40);
  }
}

TEST(WrapperEquivalence, BenchmarkCoresMatchAtEveryWidth) {
  for (const soc::Soc& soc : {soc::make_p93791(), soc::make_d695()}) {
    for (const soc::DigitalCore& core : soc.digital_cores()) {
      for (int w = 1; w <= 64; ++w) {
        expect_same_design(design_wrapper(core, w),
                           reference_design_wrapper(core, w), core);
      }
      expect_same_pareto_widths(core, 64);
    }
  }
}

}  // namespace
}  // namespace msoc::wrapper
