#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace {

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(Median, OddEvenAndUnsorted) {
  EXPECT_DOUBLE_EQ(xlb::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(xlb::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(xlb::median({7.0}), 7.0);
  EXPECT_THROW((void)xlb::median({}), std::invalid_argument);
}

TEST(Percentile, NearestRank) {
  const auto v = iota(1000);
  EXPECT_DOUBLE_EQ(xlb::percentile(v, 99.0), 990.0);
  EXPECT_DOUBLE_EQ(xlb::percentile(v, 50.0), 500.0);
  EXPECT_DOUBLE_EQ(xlb::percentile(v, 100.0), 1000.0);
  EXPECT_DOUBLE_EQ(xlb::percentile({5.0}, 99.0), 5.0);
  EXPECT_THROW((void)xlb::percentile(v, 0.0), std::invalid_argument);
  EXPECT_EQ(xlb::samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(xlb::samples_beyond(999, 99.0), 9u);
}

TEST(TailPercentile, HighestWithTenBeyond) {
  // 10000 samples: 99.9 has exactly 10 beyond it.
  auto tail = xlb::tail_percentile(iota(10000));
  EXPECT_DOUBLE_EQ(tail.p, 99.9);
  EXPECT_DOUBLE_EQ(tail.value, 9990.0);
  EXPECT_EQ(tail.count, 10000u);
  EXPECT_EQ(tail.beyond, 10u);

  // 1000 samples: 99.9 has 1 beyond, 99 has 10.
  tail = xlb::tail_percentile(iota(1000));
  EXPECT_DOUBLE_EQ(tail.p, 99.0);
  EXPECT_EQ(tail.beyond, 10u);

  // 999 samples: 99 has only 9 beyond, so 90 is the highest usable.
  tail = xlb::tail_percentile(iota(999));
  EXPECT_DOUBLE_EQ(tail.p, 90.0);
  EXPECT_EQ(tail.beyond, 99u);

  // Too few samples for any percentile: p = 0 and the maximum.
  tail = xlb::tail_percentile(iota(15));
  EXPECT_DOUBLE_EQ(tail.p, 0.0);
  EXPECT_DOUBLE_EQ(tail.value, 15.0);
}

TEST(Backlog, FlatNoisyLatencyIsNotGrowth) {
  std::vector<double> v;
  for (int i = 0; i < 400; ++i) v.push_back(1000.0 + (i * 37 % 11) * 50.0);
  EXPECT_FALSE(xlb::backlog_growing(v));
}

TEST(Backlog, LinearClimbIsGrowth) {
  std::vector<double> v;
  for (int i = 0; i < 400; ++i) v.push_back(500.0 + 20.0 * i);
  EXPECT_TRUE(xlb::backlog_growing(v));
}

TEST(Backlog, TransientSpikeIsNotGrowth) {
  std::vector<double> v(400, 1000.0);
  for (int i = 180; i < 220; ++i) v[static_cast<std::size_t>(i)] = 50000.0;
  EXPECT_FALSE(xlb::backlog_growing(v));
}

TEST(Backlog, SlowDriftBelowTwiceIsNotGrowth) {
  std::vector<double> v;
  for (int i = 0; i < 400; ++i) v.push_back(1000.0 + 1.0 * i);
  EXPECT_FALSE(xlb::backlog_growing(v));
}

TEST(Backlog, TooFewSamples) {
  EXPECT_FALSE(xlb::backlog_growing({1.0, 2.0, 4.0, 8.0, 16.0}));
}

}  // namespace
