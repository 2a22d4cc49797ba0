#include "utils/threadpool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace fca {
namespace {

/// Calls fn(i) for every index, driven by parallel_for_range the way a
/// kernel walks its grains.
void parallel_for(int64_t begin, int64_t end,
                  const std::function<void(int64_t)>& fn, int64_t grain = 256) {
  parallel_for_range(
      begin, end,
      [&fn](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) fn(i);
      },
      grain);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_all();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ZeroWorkersStillMakesProgress) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) pool.submit([&counter] { ++counter; });
  pool.wait_all();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, WaitAllIdempotent) {
  ThreadPool pool(1);
  pool.wait_all();
  std::atomic<int> counter{0};
  pool.submit([&counter] { ++counter; });
  pool.wait_all();
  pool.wait_all();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](int64_t i) { hits[static_cast<size_t>(i)]++; },
               /*grain=*/16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndSingleton) {
  std::atomic<int> count{0};
  parallel_for(5, 5, [&](int64_t) { ++count; });
  EXPECT_EQ(count.load(), 0);
  parallel_for(5, 6, [&](int64_t i) {
    EXPECT_EQ(i, 5);
    ++count;
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelForRange, RangesPartitionTheInterval) {
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> ranges;
  parallel_for_range(
      0, 777,
      [&](int64_t lo, int64_t hi) {
        std::lock_guard lk(mu);
        ranges.emplace_back(lo, hi);
      },
      /*grain=*/10);
  int64_t total = 0;
  for (auto [lo, hi] : ranges) {
    EXPECT_LT(lo, hi);
    total += hi - lo;
  }
  EXPECT_EQ(total, 777);
  // Ranges must be disjoint: sort and check adjacency covers [0, 777).
  std::sort(ranges.begin(), ranges.end());
  int64_t cursor = 0;
  for (auto [lo, hi] : ranges) {
    EXPECT_EQ(lo, cursor);
    cursor = hi;
  }
  EXPECT_EQ(cursor, 777);
}

// ---------------------------------------------------------------------------
// Nesting: a parallel_for issued from inside a pool task must degrade to a
// serial loop on the calling thread. Without the in_task() guard the nested
// wait_all() would count the enclosing task in in_flight_ and deadlock.

TEST(ThreadPool, NestedParallelForInsidePoolTaskRunsSerially) {
  std::atomic<int> covered{0};
  std::atomic<bool> was_marked{false};
  std::atomic<bool> stayed_on_caller{true};
  global_pool().submit([&] {
    was_marked.store(ThreadPool::in_task());
    const std::thread::id self = std::this_thread::get_id();
    parallel_for(
        0, 100,
        [&](int64_t) {
          if (std::this_thread::get_id() != self) stayed_on_caller = false;
          covered.fetch_add(1);
        },
        /*grain=*/1);
  });
  global_pool().wait_all();
  EXPECT_TRUE(was_marked.load());
  EXPECT_TRUE(stayed_on_caller.load());
  EXPECT_EQ(covered.load(), 100);
}

TEST(ThreadPool, SerialRegionForcesSerialParallelFor) {
  EXPECT_FALSE(ThreadPool::in_task());
  {
    ThreadPool::SerialRegion region;
    EXPECT_TRUE(ThreadPool::in_task());
    const std::thread::id self = std::this_thread::get_id();
    std::atomic<int> off_thread{0};
    parallel_for(
        0, 64,
        [&](int64_t) {
          if (std::this_thread::get_id() != self) off_thread.fetch_add(1);
        },
        /*grain=*/1);
    EXPECT_EQ(off_thread.load(), 0);
  }
  EXPECT_FALSE(ThreadPool::in_task());
}

// parallel_for_depth() counts loop bodies, not pool tasks: a body sees
// depth 1 whether its loop ran pooled, inline inside a SerialRegion, or
// inline because it was one grain. Trace span arming relies on this.
TEST(ParallelFor, DepthCountsBodiesHoweverScheduled) {
  EXPECT_EQ(parallel_for_depth(), 0);
  std::atomic<int> wrong{0};
  const auto check_body = [&](int64_t) {
    if (parallel_for_depth() != 1) wrong.fetch_add(1);
  };
  parallel_for(0, 64, check_body, /*grain=*/1);  // pooled
  parallel_for(0, 4, check_body, /*grain=*/16);  // one grain, inline
  {
    ThreadPool::SerialRegion region;
    parallel_for(0, 64, check_body, /*grain=*/1);  // nested, inline
  }
  parallel_for(
      0, 8,
      [&](int64_t) {
        parallel_for(
            0, 8,
            [&](int64_t) {
              if (parallel_for_depth() != 2) wrong.fetch_add(1);
            },
            /*grain=*/1);
      },
      /*grain=*/1);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(parallel_for_depth(), 0);
}

TEST(ThreadPool, DeeplyNestedSubmitsFromWorkersComplete) {
  // Tasks that submit further tasks (fan-out from inside workers) must all
  // run; wait_all() observes in-flight work transitively.
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&pool, &counter] {
      counter.fetch_add(1);
      pool.submit([&counter] { counter.fetch_add(1); });
    });
  }
  pool.wait_all();
  EXPECT_EQ(counter.load(), 16);
}

// ---------------------------------------------------------------------------
// Exception propagation

TEST(ParallelFor, ExceptionPropagatesToCaller) {
  EXPECT_THROW(
      parallel_for(
          0, 1000, [](int64_t i) { if (i == 500) throw std::runtime_error("boom"); },
          /*grain=*/8),
      std::runtime_error);
}

TEST(ParallelFor, LowestFailingIndexWinsDeterministically) {
  // Every index >= 137 throws. Whatever the scheduling, the winner must be
  // the exception a serial sweep would hit first: i == 137 (the lowest
  // failing chunk runs its indices in order).
  for (int rep = 0; rep < 5; ++rep) {
    try {
      parallel_for(
          0, 500,
          [](int64_t i) {
            if (i >= 137) throw std::runtime_error(std::to_string(i));
          },
          /*grain=*/16);
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "137");
    }
  }
}

TEST(ParallelForRange, ExceptionLeavesPoolUsable) {
  EXPECT_THROW(parallel_for_range(
                   0, 100,
                   [](int64_t, int64_t) { throw std::runtime_error("x"); },
                   /*grain=*/10),
               std::runtime_error);
  // The pool must have drained cleanly and keep working.
  std::atomic<int> count{0};
  parallel_for(0, 50, [&](int64_t) { count.fetch_add(1); }, /*grain=*/5);
  EXPECT_EQ(count.load(), 50);
}

TEST(ParallelFor, InsideZeroWorkerPoolTaskStillCoversAllIndices) {
  // A standalone zero-worker pool exercises the inline-drain path of
  // wait_all(); parallel_for on the global pool must behave identically when
  // it degrades to serial inside a task of that pool.
  ThreadPool pool(0);
  std::atomic<int> covered{0};
  pool.submit([&covered] {
    parallel_for(0, 32, [&](int64_t) { covered.fetch_add(1); }, /*grain=*/1);
  });
  pool.wait_all();
  EXPECT_EQ(covered.load(), 32);
}

TEST(ParallelFor, ComputesCorrectSum) {
  std::vector<int64_t> values(10000);
  std::iota(values.begin(), values.end(), 0);
  std::atomic<int64_t> total{0};
  parallel_for_range(0, static_cast<int64_t>(values.size()),
                     [&](int64_t lo, int64_t hi) {
                       int64_t local = 0;
                       for (int64_t i = lo; i < hi; ++i) local += values[static_cast<size_t>(i)];
                       total.fetch_add(local);
                     });
  EXPECT_EQ(total.load(), 10000LL * 9999 / 2);
}

}  // namespace
}  // namespace fca
