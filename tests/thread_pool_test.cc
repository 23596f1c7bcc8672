/// \file thread_pool_test.cc
/// \brief Work-stealing ThreadPool tests. Labelled "concurrency" — run
/// them under -DAUTOCOMP_SANITIZE=thread to validate the synchronization.

#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.h"

namespace autocomp {
namespace {

TEST(ThreadPoolTest, WorkerCountDefaultsToHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.worker_count(), 1);
}

TEST(ThreadPoolTest, SubmitRunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }
  // ~ThreadPool drains the queues before joining the workers.
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr int64_t kN = 10'000;
  std::vector<std::atomic<int>> visits(kN);
  pool.ParallelFor(kN, [&visits](int64_t i) { visits[i].fetch_add(1); });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroAndOne) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&calls](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // n == 1 runs inline on the caller.
  pool.ParallelFor(1, [&calls](int64_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, SingleWorkerPoolRunsInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  pool.ParallelFor(16, [&seen](int64_t i) {
    seen[i] = std::this_thread::get_id();
  });
  for (const std::thread::id& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, NestedParallelForFromWorkerRunsInline) {
  ThreadPool pool(2);
  std::atomic<int64_t> total{0};
  // Outer iterations run on pool workers; the nested call must not
  // deadlock waiting for workers that are already occupied.
  pool.ParallelFor(8, [&pool, &total](int64_t) {
    pool.ParallelFor(8, [&total](int64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, ParallelForUsesMultipleWorkers) {
  // Overlap is forced by construction, not left to scheduling luck: the
  // first body holds its worker until a second thread enters a body, so
  // one worker cannot drain every index before the others wake. The
  // wait is bounded; a pool that never fans out fails the expectation
  // below instead of hanging.
  ThreadPool pool(4);
  std::mutex mu;
  std::condition_variable second_entered;
  std::set<std::thread::id> threads;
  bool first_claimed = false;
  pool.ParallelFor(256, [&](int64_t) {
    std::unique_lock<std::mutex> lock(mu);
    threads.insert(std::this_thread::get_id());
    second_entered.notify_all();
    if (first_claimed) return;
    first_claimed = true;
    second_entered.wait_for(lock, std::chrono::seconds(5),
                            [&] { return threads.size() >= 2; });
  });
  EXPECT_GE(threads.size(), 2u);
}

TEST(ThreadPoolTest, ParallelForAccumulatesIntoSlots) {
  // The per-index-slot pattern the pipeline uses: concurrent writers,
  // disjoint indices, no synchronization needed beyond the join.
  ThreadPool pool(4);
  constexpr int64_t kN = 4096;
  std::vector<int64_t> slots(kN, -1);
  pool.ParallelFor(kN, [&slots](int64_t i) { slots[i] = i * i; });
  for (int64_t i = 0; i < kN; ++i) ASSERT_EQ(slots[i], i * i);
}

TEST(ThreadPoolTest, SubmitFromWorkerDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&pool, &ran] {
      pool.Submit([&ran] { ran.fetch_add(1); });
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallers) {
  // Two external threads driving the same pool at once.
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  std::thread a([&] {
    pool.ParallelFor(1000, [&total](int64_t) { total.fetch_add(1); });
  });
  std::thread b([&] {
    pool.ParallelFor(1000, [&total](int64_t) { total.fetch_add(1); });
  });
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 2000);
}

TEST(ThreadPoolTest, OptionsFromConfig) {
  Config config;
  config.SetInt("threadpool.workers", 3);
  EXPECT_EQ(ThreadPoolOptions::FromConfig(config).workers, 3);
  EXPECT_EQ(ThreadPoolOptions::FromConfig(Config{}).workers, 0);
}

TEST(ThreadPoolTest, DefaultPoolIsSingleton) {
  ThreadPool* a = ThreadPool::Default();
  ThreadPool* b = ThreadPool::Default();
  EXPECT_EQ(a, b);
  EXPECT_GE(a->worker_count(), 1);
  // Once constructed, the hint can no longer change it.
  EXPECT_FALSE(ThreadPool::SetDefaultWorkers(2));
}

}  // namespace
}  // namespace autocomp
