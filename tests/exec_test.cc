#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/parallel.h"
#include "util/env.h"

namespace egi::exec {
namespace {

// ------------------------------------------------------------ Parallelism

TEST(ParallelismTest, DefaultsAndFactories) {
  EXPECT_EQ(Parallelism{}.threads, 1);
  EXPECT_TRUE(Parallelism{}.serial());
  EXPECT_TRUE(Parallelism::Serial().serial());
  EXPECT_EQ(Parallelism::Fixed(4).threads, 4);
  EXPECT_FALSE(Parallelism::Fixed(4).serial());
  // Implicit int conversion keeps legacy num_threads call sites working.
  Parallelism p = 3;
  EXPECT_EQ(p.threads, 3);
}

TEST(ParallelismTest, FromEnvHonorsVariableAndClampsDefault) {
  ASSERT_EQ(setenv("EGI_NUM_THREADS", "5", 1), 0);
  EXPECT_EQ(Parallelism::FromEnv().threads, 5);
  EXPECT_EQ(GetEnvNumThreads(), 5);

  // Non-positive and garbage values fall back to hardware_concurrency >= 1.
  ASSERT_EQ(setenv("EGI_NUM_THREADS", "0", 1), 0);
  EXPECT_GE(GetEnvNumThreads(), 1);
  ASSERT_EQ(setenv("EGI_NUM_THREADS", "-3", 1), 0);
  EXPECT_GE(GetEnvNumThreads(), 1);
  ASSERT_EQ(setenv("EGI_NUM_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(GetEnvNumThreads(), 1);

  // Values beyond int range must clamp, not wrap to <= 0 (2^32 would
  // truncate to 0 under a bare static_cast).
  ASSERT_EQ(setenv("EGI_NUM_THREADS", "4294967296", 1), 0);
  EXPECT_GE(GetEnvNumThreads(), 1);

  ASSERT_EQ(unsetenv("EGI_NUM_THREADS"), 0);
  EXPECT_GE(GetEnvNumThreads(), 1);
}

// ------------------------------------------------------------- chunk math

TEST(NumChunksTest, DeterministicFromRangeAndGrainOnly) {
  EXPECT_EQ(NumChunks(0, 10), 0u);
  EXPECT_EQ(NumChunks(1, 10), 1u);
  EXPECT_EQ(NumChunks(10, 10), 1u);
  EXPECT_EQ(NumChunks(11, 10), 2u);
  EXPECT_EQ(NumChunks(100, 7), 15u);
  EXPECT_EQ(NumChunks(5, 0), 5u);  // grain clamped to 1
}

// ------------------------------------------------------------ ParallelFor

TEST(ParallelForTest, EmptyRangeNeverInvokes) {
  std::atomic<int> calls{0};
  ParallelFor(Parallelism::Fixed(4), 0, 0, 1, [&](size_t) { ++calls; });
  ParallelFor(Parallelism::Fixed(4), 5, 5, 1, [&](size_t) { ++calls; });
  ParallelFor(Parallelism::Fixed(4), 7, 3, 1, [&](size_t) { ++calls; });
  ParallelForRanges(Parallelism::Fixed(4), 2, 2, 8,
                    [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, RangeSmallerThanGrainRunsAsOneChunk) {
  std::vector<int> hits(5, 0);
  std::atomic<int> chunks{0};
  ParallelForRanges(Parallelism::Fixed(8), 0, 5, 100,
                    [&](size_t b, size_t e) {
                      ++chunks;
                      for (size_t i = b; i < e; ++i) ++hits[i];
                    });
  EXPECT_EQ(chunks.load(), 1);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, EveryIndexVisitedExactlyOnce) {
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h = 0;
  ParallelFor(Parallelism::Fixed(4), 0, kN, 7, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, NonZeroBeginOffsetsCorrectly) {
  std::vector<std::atomic<int>> hits(20);
  for (auto& h : hits) h = 0;
  ParallelFor(Parallelism::Fixed(3), 5, 17, 2, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 5 && i < 17) ? 1 : 0) << i;
  }
}

TEST(ParallelForTest, RangesPartitionExactlyAtGrainBoundaries) {
  std::vector<std::pair<size_t, size_t>> ranges;
  std::mutex mu;
  ParallelForRanges(Parallelism::Fixed(4), 3, 23, 6, [&](size_t b, size_t e) {
    std::lock_guard<std::mutex> lock(mu);
    ranges.emplace_back(b, e);
  });
  std::sort(ranges.begin(), ranges.end());
  // [3,23) at grain 6: [3,9) [9,15) [15,21) [21,23) — thread-count free.
  ASSERT_EQ(ranges.size(), 4u);
  EXPECT_EQ(ranges[0], (std::pair<size_t, size_t>{3, 9}));
  EXPECT_EQ(ranges[1], (std::pair<size_t, size_t>{9, 15}));
  EXPECT_EQ(ranges[2], (std::pair<size_t, size_t>{15, 21}));
  EXPECT_EQ(ranges[3], (std::pair<size_t, size_t>{21, 23}));
}

TEST(ParallelForTest, SerialPathPreservesOrder) {
  std::vector<size_t> order;
  ParallelFor(Parallelism::Serial(), 0, 10, 3,
              [&](size_t i) { order.push_back(i); });
  std::vector<size_t> expected(10);
  std::iota(expected.begin(), expected.end(), size_t{0});
  EXPECT_EQ(order, expected);
}

TEST(ParallelForTest, ExceptionPropagatesFromParallelWorker) {
  EXPECT_THROW(
      ParallelFor(Parallelism::Fixed(4), 0, 100, 1,
                  [&](size_t i) {
                    if (i == 37) throw std::runtime_error("worker failure");
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, ExceptionPropagatesFromSerialPath) {
  EXPECT_THROW(ParallelFor(Parallelism::Serial(), 0, 10, 1,
                           [&](size_t i) {
                             if (i == 3) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

TEST(ParallelForTest, ExceptionAbortsRemainingChunks) {
  std::atomic<int> executed{0};
  try {
    ParallelFor(Parallelism::Fixed(2), 0, 100000, 1, [&](size_t i) {
      if (i == 0) throw std::runtime_error("early failure");
      ++executed;
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error&) {
  }
  // The abort flag stops the chunk drain well before the full range.
  EXPECT_LT(executed.load(), 100000);
}

TEST(ParallelForTest, NestedUseFallsBackToSerial) {
  // Every worker of the shared pool (and the caller) holds one outer chunk
  // from before any nested region opens until after the last one returns,
  // so no worker is idle to take a nested helper: each nested region runs
  // all of its chunks on its caller, in order, each index once. Timed waits
  // turn a regression into a failure instead of a hang.
  const size_t outer_chunks =
      static_cast<size_t>(ThreadPool::Shared().num_workers()) + 1;
  std::mutex mu;
  std::condition_variable cv;
  size_t entered = 0;
  size_t finished = 0;
  std::atomic<bool> timed_out{false};
  const auto wait_for_every_chunk = [&](size_t& count) {
    std::unique_lock<std::mutex> lock(mu);
    ++count;
    cv.notify_all();
    if (!cv.wait_for(lock, std::chrono::seconds(20),
                     [&] { return count == outer_chunks; })) {
      timed_out = true;
    }
  };
  std::vector<std::vector<size_t>> order(outer_chunks);
  std::atomic<bool> inner_on_caller{true};
  ParallelFor(Parallelism::Fixed(static_cast<int>(outer_chunks)), 0,
              outer_chunks, 1, [&](size_t outer) {
                wait_for_every_chunk(entered);
                const auto caller = std::this_thread::get_id();
                ParallelFor(Parallelism::Fixed(4), 0, 8, 1, [&](size_t inner) {
                  if (std::this_thread::get_id() != caller) {
                    inner_on_caller = false;
                  }
                  std::lock_guard<std::mutex> lock(mu);
                  order[outer].push_back(inner);
                });
                wait_for_every_chunk(finished);
              });
  EXPECT_FALSE(timed_out.load()) << "the outer chunks never all overlapped";
  EXPECT_TRUE(inner_on_caller.load());
  std::vector<size_t> expected(8);
  std::iota(expected.begin(), expected.end(), size_t{0});
  for (const auto& o : order) EXPECT_EQ(o, expected);
}

TEST(ParallelForTest, NestedRegionFansOutOntoIdleWorkers) {
  // A region opened inside another region's chunk follows the one rule of
  // every region: it offers helpers, and an idle worker takes them. The
  // outer region runs on a dedicated pool, so the shared pool's workers are
  // all idle; each nested region's two chunks rendezvous, which completes
  // only if they run on two threads at once.
  ThreadPool outer_pool(1);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> arrived(2, 0);
  std::atomic<bool> timed_out{false};
  outer_pool.RunChunks(2, 2, [&](size_t outer) {
    ParallelFor(Parallelism::Fixed(2), 0, 2, 1, [&](size_t) {
      std::unique_lock<std::mutex> lock(mu);
      ++arrived[outer];
      cv.notify_all();
      if (!cv.wait_for(lock, std::chrono::seconds(20),
                       [&] { return arrived[outer] == 2; })) {
        timed_out = true;
      }
    });
  });
  EXPECT_FALSE(timed_out.load()) << "a nested region ran on its caller alone";
}

// -------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, ZeroWorkersRunsEverythingOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(5);
  pool.RunChunks(5, 8, [&](size_t c) { ids[c] = std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, ChunksActuallyRunConcurrently) {
  // Two chunks rendezvous at a barrier: this only completes if the pool
  // really runs them on two threads at once. A timed wait turns a
  // regression into a failure instead of a hang.
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  std::atomic<bool> timed_out{false};
  pool.RunChunks(2, 2, [&](size_t) {
    std::unique_lock<std::mutex> lock(mu);
    ++arrived;
    cv.notify_all();
    if (!cv.wait_for(lock, std::chrono::seconds(30),
                     [&] { return arrived == 2; })) {
      timed_out = true;
    }
  });
  EXPECT_FALSE(timed_out.load()) << "chunks never overlapped in time";
}

TEST(ThreadPoolTest, ZeroChunksIsANoop) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.RunChunks(0, 4, [&](size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, ConcurrencyCapOneIsSerialInOrder) {
  ThreadPool pool(2);
  std::vector<size_t> order;
  pool.RunChunks(6, 1, [&](size_t c) { order.push_back(c); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(ThreadPoolTest, RegionEndsWhenChunksCompleteNotWhenHelpersDequeue) {
  // The only worker is blocked, so the region's helper sits in the queue.
  // The caller must run every chunk itself and return without waiting for
  // that helper; a timed wait turns a hang into a failure.
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool blocked = false;
  bool release = false;
  pool.Enqueue([&] {
    std::unique_lock<std::mutex> lock(mu);
    blocked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return blocked; });
  }

  std::atomic<int> calls{0};
  bool returned = false;
  std::thread caller([&] {
    pool.RunChunks(4, 2, [&](size_t) { ++calls; });
    std::lock_guard<std::mutex> lock(mu);
    returned = true;
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return returned; }))
        << "RunChunks waited for a helper that was never dequeued";
    release = true;  // unblocks the worker either way
    cv.notify_all();
  }
  caller.join();
  EXPECT_EQ(calls.load(), 4);

  // The worker now dequeues the stale helper, then this marker (FIFO). The
  // helper must find every chunk claimed and never call chunk_fn.
  bool marker_ran = false;
  pool.Enqueue([&] {
    std::lock_guard<std::mutex> lock(mu);
    marker_ran = true;
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return marker_ran; }));
  }
  EXPECT_EQ(calls.load(), 4);
}

TEST(ThreadPoolDeathTest, ForkedChildEnqueueFailsFastNamingTheRule) {
  // The shared pool's workers do not survive fork(): the child must die
  // loudly on its first Enqueue rather than queue work nothing runs. The
  // "fast" style forks without exec, which is exactly the misuse.
  ::testing::GTEST_FLAG(death_test_style) = "fast";
  ThreadPool::Shared();  // workers exist before the fork
  EXPECT_DEATH(ThreadPool::Shared().Enqueue([] {}),
               "exec, don't fork, after the first parallel region");
}

TEST(ThreadPoolTest, SharedPoolIsReusableAcrossRegions) {
  // Back-to-back regions through the shared pool must all complete (the
  // pool survives and drains its queue between calls).
  for (int round = 0; round < 20; ++round) {
    std::atomic<size_t> sum{0};
    ParallelFor(Parallelism::Fixed(4), 0, 100, 3,
                [&](size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

}  // namespace
}  // namespace egi::exec
