// Tests for the bounded worker pool (common/thread_pool.h) and the
// ParallelFor facade (common/parallel.h) rebuilt on top of it.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "common/parallel.h"
#include "common/task_context.h"
#include "common/thread_pool.h"

namespace pref {
namespace {

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](int i) { hits[static_cast<size_t>(i)]++; });
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ConcurrencyIsBoundedByPoolSize) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3);
  std::mutex mu;
  std::set<std::thread::id> seen;
  // Far more iterations than lanes: the old implementation would have
  // spawned 2000 threads; the pool must reuse at most 3 (workers + caller).
  pool.ParallelFor(2000, [&](int) {
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(std::this_thread::get_id());
  });
  EXPECT_LE(seen.size(), 3u);
}

TEST(ThreadPoolTest, ReusableAcrossManyCalls) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.ParallelFor(64, [&](int i) { total += i; });
  }
  EXPECT_EQ(total.load(), 200L * (64 * 63 / 2));
}

TEST(ThreadPoolTest, FinalDecrementDoesNotTouchFreedLatch) {
  // The lane that finishes a join's last chunk wakes the joiner through the
  // pool, but the joiner may already have seen remaining == 0, returned and
  // popped the ForkJoin off its stack. Many tiny joins on an explicit
  // 4-lane pool make that window hit regardless of hardware width; under
  // ASan with detect_stack_use_after_return=1 a read of the latch after
  // the final decrement reports stack-use-after-return; a plain build may
  // crash in CondVar::NotifyAll.
  ThreadPool pool(4);
  constexpr int kCalls = 200000;
  std::atomic<long> total{0};
  for (int round = 0; round < kCalls; ++round) {
    pool.ParallelFor(4, [&](int i) { total.fetch_add(i, std::memory_order_relaxed); });
  }
  EXPECT_EQ(total.load(), static_cast<long>(kCalls) * (0 + 1 + 2 + 3));

  std::atomic<long> covered{0};
  for (int round = 0; round < kCalls; ++round) {
    pool.ParallelForMorsels(4, 1, [&](size_t, size_t b, size_t e) {
      covered.fetch_add(static_cast<long>(e - b), std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(covered.load(), static_cast<long>(kCalls) * 4);
}

TEST(ThreadPoolTest, ExceptionsPropagateToCaller) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [&](int i) {
                         ran++;
                         if (i == 37) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  EXPECT_GT(ran.load(), 0);
  // The pool must survive an exception and keep scheduling.
  std::atomic<int> after{0};
  pool.ParallelFor(50, [&](int) { after++; });
  EXPECT_EQ(after.load(), 50);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(8, [&](int) {
    // Nested calls fan out too (the joiner helps drain same-tag tasks, so
    // a worker blocking on an inner join can never deadlock the pool).
    pool.ParallelFor(8, [&](int) { inner_total++; });
  });
  EXPECT_EQ(inner_total.load(), 64);
}

TEST(ThreadPoolTest, ChunkIndexesAreDenseAndCoverTheRange) {
  ThreadPool pool(4);
  constexpr size_t kN = 1001;
  std::vector<std::atomic<int>> covered(kN);
  std::mutex mu;
  std::set<int> chunks;
  pool.ParallelForChunks(kN, [&](int chunk, size_t begin, size_t end) {
    {
      std::lock_guard<std::mutex> lock(mu);
      chunks.insert(chunk);
    }
    ASSERT_LT(begin, end);
    for (size_t i = begin; i < end; ++i) covered[i]++;
  });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(covered[i].load(), 1);
  // Dense chunk ids in [0, chunks.size()): per-chunk accumulator slots work.
  EXPECT_EQ(*chunks.begin(), 0);
  EXPECT_EQ(*chunks.rbegin(), static_cast<int>(chunks.size()) - 1);
  EXPECT_LE(chunks.size(), 4u);
}

TEST(ThreadPoolTest, MorselsCoverRangeExactlyOnceWithFixedBoundaries) {
  ThreadPool pool(4);
  constexpr size_t kN = 10001;
  constexpr size_t kMorsel = 256;
  std::vector<std::atomic<int>> covered(kN);
  std::mutex mu;
  std::set<size_t> morsels;
  pool.ParallelForMorsels(kN, kMorsel, [&](size_t m, size_t begin, size_t end) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ASSERT_TRUE(morsels.insert(m).second) << "morsel " << m << " ran twice";
    }
    // Boundaries are a pure function of (n, morsel_size): morsel m always
    // covers [m*size, min(n, (m+1)*size)) regardless of pool width.
    EXPECT_EQ(begin, m * kMorsel);
    EXPECT_EQ(end, std::min(kN, begin + kMorsel));
    for (size_t i = begin; i < end; ++i) covered[i]++;
  });
  EXPECT_EQ(morsels.size(), (kN + kMorsel - 1) / kMorsel);
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(covered[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, MorselBoundariesIndependentOfPoolWidth) {
  auto collect = [](ThreadPool& pool) {
    std::mutex mu;
    std::set<std::tuple<size_t, size_t, size_t>> seen;
    pool.ParallelForMorsels(1000, 64, [&](size_t m, size_t b, size_t e) {
      std::lock_guard<std::mutex> lock(mu);
      seen.emplace(m, b, e);
    });
    return seen;
  };
  ThreadPool one(1), four(4);
  EXPECT_EQ(collect(one), collect(four));
}

TEST(ThreadPoolTest, MorselExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelForMorsels(1000, 16,
                                       [&](size_t m, size_t, size_t) {
                                         if (m == 7) throw std::runtime_error("boom");
                                       }),
               std::runtime_error);
  std::atomic<int> after{0};
  pool.ParallelForMorsels(100, 10, [&](size_t, size_t b, size_t e) {
    after += static_cast<int>(e - b);
  });
  EXPECT_EQ(after.load(), 100);
}

TEST(ThreadPoolTest, MorselEdgeCases) {
  ThreadPool pool(4);
  int runs = 0;
  pool.ParallelForMorsels(0, 128, [&](size_t, size_t, size_t) { ++runs; });
  EXPECT_EQ(runs, 0);
  // morsel_size 0 is clamped to 1 instead of dividing by zero.
  std::atomic<int> singles{0};
  pool.ParallelForMorsels(5, 0, [&](size_t, size_t b, size_t e) {
    EXPECT_EQ(e, b + 1);
    singles++;
  });
  EXPECT_EQ(singles.load(), 5);
  // Nested call from a worker fans out via help-joins, like ParallelFor.
  std::atomic<int> nested{0};
  pool.ParallelForMorsels(4, 1, [&](size_t, size_t, size_t) {
    pool.ParallelForMorsels(4, 1, [&](size_t, size_t, size_t) { nested++; });
  });
  EXPECT_EQ(nested.load(), 16);
}

TEST(ThreadPoolTest, ZeroAndOneIterationEdgeCases) {
  ThreadPool pool(4);
  int runs = 0;
  pool.ParallelFor(0, [&](int) { ++runs; });
  EXPECT_EQ(runs, 0);
  pool.ParallelFor(1, [&](int i) {
    EXPECT_EQ(i, 0);
    ++runs;
  });
  EXPECT_EQ(runs, 1);
}

TEST(ThreadPoolTest, SingleLanePoolRunsOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  const auto caller = std::this_thread::get_id();
  pool.ParallelFor(16, [&](int) { EXPECT_EQ(std::this_thread::get_id(), caller); });
}

TEST(ThreadPoolTest, ConcurrentSubmittersWithNestedFanOutDoNotDeadlock) {
  // The regression this guards (run under TSan in CI): multiple threads
  // submitting nested ParallelForMorsels into one shared pool used to be
  // able to park every lane inside an outer join while the inner tasks
  // they were waiting on sat unexecuted in the queue. With help-first
  // joins each blocked submitter drains its own tag's tasks instead.
  ThreadPool pool(4);
  constexpr int kSubmitters = 4;
  constexpr size_t kOuter = 600;
  constexpr size_t kInner = 300;
  std::vector<std::atomic<long>> totals(kSubmitters);
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      pool.ParallelForMorsels(kOuter, 64, [&](size_t, size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) {
          pool.ParallelForMorsels(kInner, 32, [&](size_t, size_t ib, size_t ie) {
            totals[static_cast<size_t>(s)] += static_cast<long>(ie - ib);
          });
        }
      });
    });
  }
  for (auto& t : submitters) t.join();
  for (int s = 0; s < kSubmitters; ++s) {
    EXPECT_EQ(totals[static_cast<size_t>(s)].load(),
              static_cast<long>(kOuter * kInner))
        << "submitter " << s;
  }
}

TEST(ThreadPoolTest, ParallelBodiesInheritTheSubmittersTaskTag) {
  // Fan-out tasks carry the tag active at the submitting call site — the
  // mechanism the query scheduler uses to interleave queries fairly and
  // stamp trace spans with query identity.
  ThreadPool pool(4);
  std::atomic<int> tagged{0};
  TaskTagScope scope(42);
  pool.ParallelFor(64, [&](int) {
    if (CurrentTaskTag() == 42) tagged++;
  });
  EXPECT_EQ(tagged.load(), 64);
}

TEST(ThreadPoolTest, PostAndTryRunOneTask) {
  // A 1-lane pool has no workers: Posted tasks sit queued until someone
  // lends a thread, which makes dispatch order observable and exact.
  ThreadPool pool(1);
  std::vector<int> order;
  EXPECT_FALSE(pool.TryRunOneTask());  // empty queue
  pool.Post([&] { order.push_back(1); });
  pool.Post([&] { order.push_back(2); });
  EXPECT_TRUE(pool.TryRunOneTask());
  EXPECT_TRUE(pool.TryRunOneTask());
  EXPECT_FALSE(pool.TryRunOneTask());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // FIFO within one tag
}

TEST(ThreadPoolTest, DispatchRoundRobinsAcrossTags) {
  // Two tags with two queued tasks each: round-robin dispatch alternates
  // tags instead of draining one tag's backlog first. Deterministic on a
  // 1-lane pool because only TryRunOneTask executes anything.
  ThreadPool pool(1);
  std::vector<uint64_t> order;
  {
    TaskTagScope scope(1);
    pool.Post([&] { order.push_back(1); });
    pool.Post([&] { order.push_back(1); });
  }
  {
    TaskTagScope scope(2);
    pool.Post([&] { order.push_back(2); });
    pool.Post([&] { order.push_back(2); });
  }
  while (pool.TryRunOneTask()) {
  }
  EXPECT_EQ(order, (std::vector<uint64_t>{1, 2, 1, 2}));
}

TEST(ThreadPoolTest, DestructorRunsLeftoverPostedTasks) {
  // Post promises the task eventually runs; on a 1-lane pool with no
  // waiter that has to happen in the destructor's drain.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    pool.Post([&] { ran++; });
  }
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, FreeFunctionParallelForStillWorks) {
  // The legacy entry point used across the engine: same signature, now
  // bounded by the shared pool.
  std::atomic<int> total{0};
  ParallelFor(256, [&](int i) { total += i; });
  EXPECT_EQ(total.load(), 256 * 255 / 2);
}

TEST(ThreadPoolTest, DefaultConcurrencyIsPositive) {
  EXPECT_GE(ThreadPool::DefaultConcurrency(), 1);
  EXPECT_GE(ThreadPool::Default().num_threads(), 1);
}

}  // namespace
}  // namespace pref
