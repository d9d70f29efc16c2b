#include "msoc/tam/skyline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/common/rng.hpp"

namespace msoc::tam {
namespace {

/// Reference level: the delta-map prefix sum the packer used to keep.
template <typename Load>
Load reference_level(const std::map<Cycles, Load>& delta, Cycles t) {
  Load level{};
  for (const auto& [time, d] : delta) {
    if (time > t) break;
    level += d;
  }
  return level;
}

TEST(Skyline, EmptyEnvelopeIsFlatZero) {
  Skyline<long long> sky;
  EXPECT_TRUE(sky.empty());
  EXPECT_EQ(sky.segment_count(), 0u);
  EXPECT_EQ(sky.level_at(0), 0);
  EXPECT_EQ(sky.level_at(1000), 0);
  EXPECT_EQ(sky.peak(), 0);
  EXPECT_EQ(sky.floor(5), sky.end());
}

TEST(Skyline, SingleAddMakesOneSegmentAndAZeroTail) {
  Skyline<long long> sky;
  sky.add(10, 20, 3);
  EXPECT_EQ(sky.segment_count(), 2u);  // {10: 3}, {20: 0}
  EXPECT_EQ(sky.level_at(9), 0);
  EXPECT_EQ(sky.level_at(10), 3);
  EXPECT_EQ(sky.level_at(19), 3);
  EXPECT_EQ(sky.level_at(20), 0);
  EXPECT_EQ(sky.peak(), 3);
}

TEST(Skyline, OverlappingAddsStack) {
  Skyline<long long> sky;
  sky.add(0, 30, 2);
  sky.add(10, 20, 5);
  EXPECT_EQ(sky.level_at(5), 2);
  EXPECT_EQ(sky.level_at(15), 7);
  EXPECT_EQ(sky.level_at(25), 2);
  EXPECT_EQ(sky.level_at(30), 0);
  EXPECT_EQ(sky.peak(), 7);
  EXPECT_EQ(sky.segment_count(), 4u);  // 0:2, 10:7, 20:2, 30:0
}

TEST(Skyline, EqualLevelNeighborsCoalesce) {
  Skyline<long long> sky;
  sky.add(0, 10, 3);
  sky.add(10, 20, 3);  // same level, adjacent: one segment
  EXPECT_EQ(sky.segment_count(), 2u);  // {0: 3}, {20: 0}
  EXPECT_EQ(sky.level_at(10), 3);
  // A reservation ending exactly where an equal one starts also merges.
  sky.add(20, 30, 3);
  EXPECT_EQ(sky.segment_count(), 2u);
  EXPECT_EQ(sky.level_at(29), 3);
  EXPECT_EQ(sky.level_at(30), 0);
}

TEST(Skyline, DrainsToExactZeroPastTheLastSegment) {
  Skyline<double> sky;
  for (int i = 0; i < 100; ++i) {
    sky.add(static_cast<Cycles>(i), static_cast<Cycles>(i) + 1,
            0.1 + i * 0.001);
  }
  // Untouched tail segments are never accumulated into, so the drained
  // level is exactly 0.0 — not float residue.
  EXPECT_EQ(sky.level_at(200), 0.0);
}

TEST(Skyline, RejectsEmptySegments) {
  Skyline<long long> sky;
  EXPECT_THROW(sky.add(10, 10, 1), LogicError);
  EXPECT_THROW(sky.add(10, 5, 1), LogicError);
}

TEST(SkylineProperty, IntegerLevelsMatchDeltaMapEverywhere) {
  Rng rng(7);
  for (int round = 0; round < 30; ++round) {
    Skyline<long long> sky;
    std::map<Cycles, long long> delta;
    for (int i = 0; i < 50; ++i) {
      const Cycles start = rng.uniform_u64(0, 300);
      const Cycles len = rng.uniform_u64(1, 60);
      const long long amount = rng.uniform_int(1, 16);
      sky.add(start, start + len, amount);
      delta[start] += amount;
      delta[start + len] -= amount;
    }
    for (Cycles t = 0; t <= 400; ++t) {
      ASSERT_EQ(sky.level_at(t), reference_level(delta, t)) << "t=" << t;
    }
    // Canonical form: no segment repeats its predecessor's level, and
    // the envelope ends drained.
    long long prev = 0;
    for (const auto& [start, level] : sky) {
      EXPECT_NE(level, prev) << "segment at " << start;
      prev = level;
    }
    EXPECT_EQ(prev, 0);
  }
}

TEST(SkylineProperty, DoubleLevelsMatchDeltaMapWithinUlps) {
  Rng rng(8);
  for (int round = 0; round < 20; ++round) {
    Skyline<double> sky;
    std::map<Cycles, double> delta;
    for (int i = 0; i < 40; ++i) {
      const Cycles start = rng.uniform_u64(0, 200);
      const Cycles len = rng.uniform_u64(1, 50);
      const double amount = rng.uniform(0.1, 50.0);
      sky.add(start, start + len, amount);
      delta[start] += amount;
      delta[start + len] -= amount;
    }
    for (Cycles t = 0; t <= 300; t += 3) {
      const double expected = reference_level(delta, t);
      ASSERT_NEAR(sky.level_at(t), expected,
                  1e-9 * (std::abs(expected) + 1.0))
          << "t=" << t;
    }
  }
}

}  // namespace
}  // namespace msoc::tam
