#include "msoc/tam/interval_set.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/common/rng.hpp"

namespace msoc::tam {
namespace {

using Interval = IntervalSet::Interval;

std::vector<Interval> vec(const IntervalSet& s) { return s.to_vector(); }

TEST(IntervalSet, StartsEmpty) {
  IntervalSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.contains(0));
  EXPECT_EQ(s.first_fit(7, 10), 7u);
}

TEST(IntervalSet, DisjointInsertsStaySeparate) {
  IntervalSet s;
  s.insert(10, 20);
  s.insert(30, 40);
  s.insert(0, 5);
  EXPECT_EQ(vec(s), (std::vector<Interval>{{0, 5}, {10, 20}, {30, 40}}));
}

TEST(IntervalSet, OverlappingInsertsMerge) {
  IntervalSet s;
  s.insert(10, 20);
  s.insert(15, 25);  // extends right
  EXPECT_EQ(vec(s), (std::vector<Interval>{{10, 25}}));
  s.insert(5, 12);  // extends left
  EXPECT_EQ(vec(s), (std::vector<Interval>{{5, 25}}));
  s.insert(0, 100);  // swallows everything
  EXPECT_EQ(vec(s), (std::vector<Interval>{{0, 100}}));
}

TEST(IntervalSet, AdjacentInsertsCoalesce) {
  IntervalSet s;
  s.insert(10, 20);
  s.insert(20, 30);  // touches on the right
  EXPECT_EQ(vec(s), (std::vector<Interval>{{10, 30}}));
  s.insert(0, 10);  // touches on the left
  EXPECT_EQ(vec(s), (std::vector<Interval>{{0, 30}}));
}

TEST(IntervalSet, OutOfOrderInsertBridgesNeighbors) {
  IntervalSet s;
  s.insert(40, 55);
  s.insert(0, 20);
  s.insert(18, 42);  // bridges both existing intervals
  EXPECT_EQ(vec(s), (std::vector<Interval>{{0, 55}}));
}

TEST(IntervalSet, InsertInsideExistingIsAbsorbed) {
  IntervalSet s;
  s.insert(0, 100);
  s.insert(10, 20);
  EXPECT_EQ(vec(s), (std::vector<Interval>{{0, 100}}));
}

TEST(IntervalSet, ContainsIsHalfOpen) {
  IntervalSet s;
  s.insert(10, 20);
  EXPECT_FALSE(s.contains(9));
  EXPECT_TRUE(s.contains(10));
  EXPECT_TRUE(s.contains(19));
  EXPECT_FALSE(s.contains(20));
}

TEST(IntervalSet, EmptyInsertIsRejected) {
  IntervalSet s;
  EXPECT_THROW(s.insert(10, 10), LogicError);
  EXPECT_THROW(s.insert(10, 5), LogicError);
}

TEST(IntervalSet, FirstFitFindsTheFirstWideEnoughGap) {
  IntervalSet s;
  s.insert(0, 20);
  s.insert(40, 55);
  // [20, 40) holds a length-10 window.
  EXPECT_EQ(s.first_fit(0, 10), 20u);
  // ...but not a length-25 one; the next gap starts at 55.
  EXPECT_EQ(s.first_fit(0, 25), 55u);
  // A probe already inside a gap wide enough stays put.
  EXPECT_EQ(s.first_fit(22, 10), 22u);
  // A probe inside an interval jumps past it.
  EXPECT_EQ(s.first_fit(45, 10), 55u);
  // A window that merely touches an interval's start is free.
  EXPECT_EQ(s.first_fit(30, 10), 30u);
}

/// Reference for first_fit: the packer's historical fixpoint over an
/// unsorted interval vector (advance past every overlapping interval
/// until none overlap).  The coalesced walk must agree exactly.
Cycles fixpoint_first_fit(const std::vector<Interval>& blocked, Cycles from,
                          Cycles duration) {
  Cycles clear = from;
  for (bool moved = true; moved;) {
    moved = false;
    for (const auto& [b, e] : blocked) {
      if (clear < e && b < clear + duration) {
        clear = e;
        moved = true;
      }
    }
  }
  return clear;
}

TEST(IntervalSetProperty, RandomInsertsKeepCanonicalForm) {
  Rng rng(1234);
  for (int round = 0; round < 50; ++round) {
    IntervalSet s;
    for (int i = 0; i < 60; ++i) {
      const Cycles start = rng.uniform_u64(0, 400);
      const Cycles len = rng.uniform_u64(1, 40);
      s.insert(start, start + len);
    }
    // Canonical: sorted, non-empty, with a real gap between neighbors.
    const std::vector<Interval> v = vec(s);
    ASSERT_FALSE(v.empty());
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_LT(v[i].first, v[i].second);
      if (i > 0) {
        EXPECT_GT(v[i].first, v[i - 1].second);
      }
    }
  }
}

TEST(IntervalSetProperty, MembershipMatchesBruteForceUnion) {
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    IntervalSet s;
    std::vector<bool> covered(520, false);
    for (int i = 0; i < 40; ++i) {
      const Cycles start = rng.uniform_u64(0, 480);
      const Cycles len = rng.uniform_u64(1, 30);
      s.insert(start, start + len);
      for (Cycles t = start; t < start + len; ++t) covered[t] = true;
    }
    for (Cycles t = 0; t < covered.size(); ++t) {
      EXPECT_EQ(s.contains(t), covered[t]) << "t=" << t;
    }
  }
}

TEST(IntervalSetProperty, FirstFitMatchesTheHistoricalFixpoint) {
  Rng rng(4242);
  for (int round = 0; round < 40; ++round) {
    IntervalSet s;
    std::vector<Interval> raw;
    const int n = rng.uniform_int(0, 25);
    for (int i = 0; i < n; ++i) {
      const Cycles start = rng.uniform_u64(0, 300);
      const Cycles len = rng.uniform_u64(1, 50);
      s.insert(start, start + len);
      raw.emplace_back(start, start + len);
    }
    for (int probe = 0; probe < 40; ++probe) {
      const Cycles from = rng.uniform_u64(0, 400);
      const Cycles duration = rng.uniform_u64(1, 60);
      EXPECT_EQ(s.first_fit(from, duration),
                fixpoint_first_fit(raw, from, duration))
          << "from=" << from << " d=" << duration;
    }
  }
}

}  // namespace
}  // namespace msoc::tam
