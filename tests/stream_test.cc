#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "stream/detector.h"
#include "stream/ring_buffer.h"
#include "stream/rolling_stats.h"
#include "ts/prefix_stats.h"
#include "util/rng.h"

namespace egi::stream {
namespace {

// ------------------------------------------------------------- RingBuffer

TEST(RingBufferTest, FillsThenEvictsOldest) {
  RingBuffer<int> rb(3);
  EXPECT_TRUE(rb.empty());
  rb.PushBack(1);
  rb.PushBack(2);
  EXPECT_EQ(rb.size(), 2u);
  EXPECT_FALSE(rb.full());
  rb.PushBack(3);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.front(), 1);
  rb.PushBack(4);  // evicts 1
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb.front(), 2);
  EXPECT_EQ(rb.back(), 4);
  EXPECT_EQ(rb[0], 2);
  EXPECT_EQ(rb[1], 3);
  EXPECT_EQ(rb[2], 4);
}

TEST(RingBufferTest, SnapshotIsOldestFirstAcrossWrap) {
  RingBuffer<int> rb(4);
  for (int i = 0; i < 11; ++i) rb.PushBack(i);
  EXPECT_EQ(rb.Snapshot(), (std::vector<int>{7, 8, 9, 10}));
}

TEST(RingBufferTest, CopyLastTakesNewestInOrder) {
  RingBuffer<int> rb(5);
  for (int i = 0; i < 8; ++i) rb.PushBack(i);
  std::vector<int> out(3);
  rb.CopyLast(3, out);
  EXPECT_EQ(out, (std::vector<int>{5, 6, 7}));
}

TEST(RingBufferTest, AssignOverwritesLogicalOrder) {
  RingBuffer<int> rb(3);
  for (int i = 0; i < 5; ++i) rb.PushBack(i);  // holds {2, 3, 4}
  const std::vector<int> replacement{7, 8, 9};
  rb.Assign(replacement);
  EXPECT_EQ(rb.Snapshot(), replacement);
  rb.PushBack(10);
  EXPECT_EQ(rb.Snapshot(), (std::vector<int>{8, 9, 10}));
}

TEST(RingBufferTest, ClearEmpties) {
  RingBuffer<int> rb(2);
  rb.PushBack(1);
  rb.Clear();
  EXPECT_TRUE(rb.empty());
  rb.PushBack(5);
  EXPECT_EQ(rb.front(), 5);
}

// ----------------------------------------------------------- RollingStats

TEST(RollingStatsTest, MatchesPrefixStatsOnSlidingWindows) {
  Rng rng(7);
  std::vector<double> series(512);
  for (double& v : series) v = rng.Gaussian(5.0, 2.0);
  const ts::PrefixStats ps(series);

  const size_t n = 64;
  RollingStats rs;
  for (size_t i = 0; i < series.size(); ++i) {
    if (i >= n) rs.Remove(series[i - n]);
    rs.Add(series[i]);
    const size_t start = i + 1 >= n ? i + 1 - n : 0;
    const size_t len = i + 1 - start;
    ASSERT_EQ(rs.count(), len);
    EXPECT_NEAR(rs.Mean(), ps.RangeMean(start, len), 1e-9);
    EXPECT_NEAR(rs.SampleStdDev(), ps.RangeStdDev(start, len), 1e-9);
  }
}

TEST(RollingStatsTest, EmptyAndSingletonAreZero) {
  RollingStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.SampleStdDev(), 0.0);
  rs.Add(3.5);
  EXPECT_DOUBLE_EQ(rs.Mean(), 3.5);
  EXPECT_DOUBLE_EQ(rs.SampleStdDev(), 0.0);
  rs.Remove(3.5);
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.Sum(), 0.0);
}

TEST(RollingStatsTest, CompensationSurvivesLongRuns) {
  // 1e6 adds/removes of values around a 1e6 offset: a naive accumulator
  // drifts visibly; the compensated one stays near-exact.
  RollingStats rs;
  const size_t n = 128;
  std::vector<double> window;
  Rng rng(11);
  double expected_last_mean = 0.0;
  for (size_t i = 0; i < 1000000; ++i) {
    const double v = 1.0e6 + rng.UniformDouble(-1.0, 1.0);
    window.push_back(v);
    if (window.size() > n) {
      rs.Remove(window.front());
      window.erase(window.begin());
    }
    rs.Add(v);
  }
  double sum = 0.0;
  for (double v : window) sum += v;
  expected_last_mean = sum / static_cast<double>(window.size());
  EXPECT_NEAR(rs.Mean(), expected_last_mean, 1e-7);
}

// ------------------------------------------------- detector ingest state

// A detector that never refits within these tests' series, so only its
// ingest state (points, rolling window stats, counters) moves.
StreamDetector IngestOnlyDetector(size_t capacity, size_t n) {
  StreamDetectorOptions opt;
  opt.ensemble.window_length = n;
  opt.ensemble.wmax = 2;
  opt.ensemble.amax = 2;
  opt.buffer_capacity = capacity;
  opt.refit_interval = 1000;
  return StreamDetector(opt);
}

TEST(StreamWindowTest, TracksTrailingWindowStats) {
  Rng rng(3);
  std::vector<double> series(300);
  for (double& v : series) v = rng.Gaussian();
  const ts::PrefixStats ps(series);

  const size_t capacity = 128, n = 32;
  StreamDetector d = IngestOnlyDetector(capacity, n);
  for (size_t i = 0; i < series.size(); ++i) {
    EXPECT_FALSE(d.Append(series[i]).scored);
    EXPECT_EQ(d.buffered(), std::min(i + 1, capacity));
    if (i + 1 >= n) {
      EXPECT_NEAR(d.RollingMean(), ps.RangeMean(i + 1 - n, n), 1e-9);
      EXPECT_NEAR(d.RollingStdDev(), ps.RangeStdDev(i + 1 - n, n), 1e-9);
    }
  }
  EXPECT_EQ(d.refit_count(), 0u);
  EXPECT_EQ(d.total_appended(), series.size());

  // The buffer is the last `capacity` points, oldest first.
  const auto snap = d.BufferSnapshot();
  ASSERT_EQ(snap.size(), capacity);
  for (size_t i = 0; i < capacity; ++i) {
    EXPECT_EQ(snap[i], series[series.size() - capacity + i]);
  }
}

TEST(StreamWindowTest, WindowStatsCorrectWhileFilling) {
  StreamDetector d = IngestOnlyDetector(16, 4);
  d.Append(1.0);
  d.Append(3.0);
  EXPECT_DOUBLE_EQ(d.RollingMean(), 2.0);
  EXPECT_LT(d.buffered(), d.window_length());
  d.Append(5.0);
  d.Append(7.0);
  EXPECT_EQ(d.buffered(), d.window_length());
  EXPECT_DOUBLE_EQ(d.RollingMean(), 4.0);
  d.Append(9.0);  // window is now {3, 5, 7, 9}
  EXPECT_DOUBLE_EQ(d.RollingMean(), 6.0);
  EXPECT_EQ(d.BufferSnapshot(), (std::vector<double>{1, 3, 5, 7, 9}));
  EXPECT_EQ(d.refit_count(), 0u);
}

}  // namespace
}  // namespace egi::stream
