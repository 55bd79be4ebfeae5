#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <random>
#include <utility>

namespace topil {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.uniform(0, 1) != b.uniform(0, 1)) ++differing;
  }
  EXPECT_GT(differing, 25);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.5, 7.5);
    EXPECT_GE(x, -2.5);
    EXPECT_LT(x, 7.5);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(4);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int x = rng.uniform_int(0, 3);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 3);
    saw_lo |= (x == 0);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMatchesMoments) {
  Rng rng(5);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gaussian(3.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.25);
}

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

TEST(Rng, GaussianMatchesNormalDistributionBitForBit) {
  const std::pair<double, double> params[] = {
      {0.0, 1.0}, {3.0, 2.0}, {-1.5, 0.25}, {1e6, 1e-3}, {-0.0, 5.0}};
  for (std::uint64_t seed : {1ull, 42ull, 0x9e3779b97f4a7c15ull}) {
    Rng rng(seed);
    for (int i = 0; i < 200; ++i) {
      for (const auto& [mean, stddev] : params) {
        std::mt19937_64 ref = rng.engine();
        const double want =
            std::normal_distribution<double>(mean, stddev)(ref);
        const double got = rng.gaussian(mean, stddev);
        ASSERT_EQ(bits_of(got), bits_of(want))
            << "seed " << seed << " draw " << i << " N(" << mean << ", "
            << stddev << ")";
        ASSERT_TRUE(rng.engine() == ref) << "engine advance differs";
      }
    }
  }
}

TEST(Rng, GaussianZeroStddevReturnsMeanAndAdvancesAsUsual) {
  Rng zero(77);
  Rng unit(77);
  EXPECT_EQ(zero.gaussian(2.5, 0.0), 2.5);
  unit.gaussian(2.5, 1.0);
  EXPECT_TRUE(zero.engine() == unit.engine());
  EXPECT_EQ(bits_of(zero.gaussian(1.0, 3.0)), bits_of(unit.gaussian(1.0, 3.0)));
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(6);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, BernoulliRespectsProbability) {
  Rng rng(7);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(Rng, IndexUniformOverRange) {
  Rng rng(8);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) counts[rng.index(5)]++;
  for (int c : counts) EXPECT_GT(c, 800);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(10);
  Rng child = a.fork();
  // The fork must not replay the parent stream.
  Rng b(10);
  b.fork();
  int same = 0;
  for (int i = 0; i < 16; ++i) {
    if (child.uniform(0, 1) == b.uniform(0, 1)) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, InvalidArgumentsThrow) {
  Rng rng(11);
  EXPECT_THROW(rng.uniform(2.0, 1.0), InvalidArgument);
  EXPECT_THROW(rng.uniform_int(5, 4), InvalidArgument);
  EXPECT_THROW(rng.gaussian(0.0, -1.0), InvalidArgument);
  EXPECT_THROW(rng.exponential(0.0), InvalidArgument);
  EXPECT_THROW(rng.bernoulli(1.5), InvalidArgument);
  EXPECT_THROW(rng.index(0), InvalidArgument);
}

}  // namespace
}  // namespace topil
