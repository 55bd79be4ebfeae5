// Percentiles as the benchmark reports them (perfbench/src/stats.hpp).

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRankOfOneToHundred) {
  const auto v = one_to(100);
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 99.0), 99.0);
  EXPECT_EQ(percentile(v, 100.0), 100.0);
  EXPECT_EQ(percentile(v, 0.5), 1.0);
}

TEST(Percentile, IgnoresInputOrder) {
  std::vector<double> v = {9.0, 1.0, 5.0, 3.0, 7.0};
  EXPECT_EQ(median(v), 5.0);
  EXPECT_EQ(percentile(v, 80.0), 7.0);
}

TEST(Percentile, RejectsEmptyAndOutOfRange) {
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101.0), std::invalid_argument);
}

TEST(Percentile, SamplesBeyondCountsTheTail) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);
  EXPECT_EQ(samples_beyond(20, 50.0), 10u);
  EXPECT_EQ(samples_beyond(0, 50.0), 0u);
}

TEST(Percentile, ReportedOnlyWithTenSamplesBeyond) {
  EXPECT_FALSE(reportable_percentile(one_to(999), 99.0).has_value());
  const auto p99 = reportable_percentile(one_to(1000), 99.0);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(*p99, 990.0);
  EXPECT_FALSE(reportable_percentile(one_to(19), 50.0).has_value());
  EXPECT_TRUE(reportable_percentile(one_to(20), 50.0).has_value());
}

}  // namespace
}  // namespace perfbench
