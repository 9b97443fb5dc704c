// Tests for the deterministic RNG streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sim/random.h"

namespace psoodb::sim {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123, 4), b(123, 4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentStreamsDiffer) {
  Rng a(123, 0), b(123, 1);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    double v = r.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng r(9);
  for (int i = 0; i < 10000; ++i) {
    double v = r.Uniform(0.010, 0.030);
    EXPECT_GE(v, 0.010);
    EXPECT_LT(v, 0.030);
  }
}

TEST(RngTest, UniformIntInclusiveBothEnds) {
  Rng r(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    auto v = r.UniformInt(1, 7);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 1);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng r(13);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.UniformInt(5, 5), 5);
}

TEST(RngTest, UniformIntRoughlyUniform) {
  Rng r(17);
  constexpr int kBuckets = 10, kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[r.UniformInt(0, kBuckets - 1)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng r(19);
  double sum = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) sum += r.Exponential(2.5);
  EXPECT_NEAR(sum / kDraws, 2.5, 0.05);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng r(23);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hits += r.Bernoulli(0.2) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(kDraws), 0.2, 0.01);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng r(29);
  std::vector<std::int64_t> v{-1, -2};  // stale contents are cleared
  for (std::size_t k : {1u, 5u, 30u, 100u}) {
    r.SampleWithoutReplacement(10, 109, k, &v);
    EXPECT_EQ(v.size(), k);
    std::set<std::int64_t> s(v.begin(), v.end());
    EXPECT_EQ(s.size(), k);
    for (auto x : v) {
      EXPECT_GE(x, 10);
      EXPECT_LE(x, 109);
    }
  }
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  Rng r(31);
  std::vector<std::int64_t> v;
  r.SampleWithoutReplacement(0, 9, 10, &v);
  std::sort(v.begin(), v.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(v[i], i);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng r(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

}  // namespace
}  // namespace psoodb::sim
