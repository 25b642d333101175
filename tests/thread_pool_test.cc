// Direct coverage for util/thread_pool — until now it was exercised only
// through batch_determinism_test. Pins down the pieces the batch engine
// and the serving scheduler rely on: every task runs exactly once at any
// worker count, the single-worker path is inline on the caller, an idle
// worker steals from a busy victim's deque, Run nests, and a throwing
// task surfaces on the calling thread instead of terminating the process.

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace geer {
namespace {

TEST(ResolveWorkerCountTest, ClampsToTaskCountAndFloorsAtOne) {
  EXPECT_EQ(ResolveWorkerCount(5, 3), 3);
  EXPECT_EQ(ResolveWorkerCount(1, 100), 1);
  EXPECT_EQ(ResolveWorkerCount(4, 100), 4);
  EXPECT_EQ(ResolveWorkerCount(4, 0), 1);   // never zero workers
  EXPECT_GE(ResolveWorkerCount(0, 1000000), 1);  // 0 = hardware concurrency
  EXPECT_LE(ResolveWorkerCount(0, 2), 2);
}

#if defined(__linux__)
// 0 resolves to the CPUs the caller may run on, not to the machine's.
TEST(ResolveWorkerCountTest, DefaultFollowsTheAffinityMask) {
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  EXPECT_EQ(ResolveWorkerCount(0, 1000000), CPU_COUNT(&original));
  int first = 0;
  while (!CPU_ISSET(first, &original)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const int pinned = ResolveWorkerCount(0, 1000000);
  ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
  EXPECT_EQ(pinned, 1);
}
#endif

TEST(WorkStealingPoolTest, RunsEveryTaskExactlyOnceAtAnyWorkerCount) {
  constexpr std::size_t kTasks = 100;
  for (const int workers : {1, 2, 3, 8}) {
    std::vector<std::atomic<int>> runs(kTasks);
    std::atomic<bool> bad_worker_id(false);
    WorkStealingPool::Run(workers, kTasks, [&](int worker, std::size_t t) {
      if (worker < 0 || worker >= workers) bad_worker_id = true;
      runs[t].fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_FALSE(bad_worker_id.load()) << "workers=" << workers;
    for (std::size_t t = 0; t < kTasks; ++t) {
      EXPECT_EQ(runs[t].load(), 1) << "workers=" << workers << " task " << t;
    }
  }
}

TEST(WorkStealingPoolTest, SingleWorkerRunsInlineInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool off_thread = false;
  WorkStealingPool::Run(1, 5, [&](int worker, std::size_t t) {
    if (std::this_thread::get_id() != caller) off_thread = true;
    EXPECT_EQ(worker, 0);
    order.push_back(t);
  });
  EXPECT_FALSE(off_thread);
  ASSERT_EQ(order.size(), 5u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(WorkStealingPoolTest, ZeroTasksIsANoOp) {
  bool called = false;
  WorkStealingPool::Run(4, 0, [&](int, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

// Forces a steal deterministically: with 2 workers and 4 tasks the deal
// is deque0 = [0, 2], deque1 = [1, 3]. Task 0 blocks until task 2
// completes, and steals pop the BACK of the victim's deque — so worker 0
// can never reach task 2 itself (it either blocks in task 0 first, or
// worker 1 has already stolen both). Task 2 is therefore always run by
// worker 1, whatever the interleaving.
TEST(WorkStealingPoolTest, IdleWorkerStealsFromBusyVictim) {
  std::atomic<bool> task2_done(false);
  std::vector<std::atomic<int>> runner(4);
  for (auto& r : runner) r.store(-1);
  WorkStealingPool::Run(2, 4, [&](int worker, std::size_t t) {
    if (t == 0) {
      while (!task2_done.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }
    runner[t].store(worker, std::memory_order_relaxed);
    if (t == 2) task2_done.store(true, std::memory_order_release);
  });
  EXPECT_EQ(runner[2].load(), 1);  // stolen while worker 0 was blocked
  for (int t = 0; t < 4; ++t) EXPECT_NE(runner[t].load(), -1);
}

TEST(WorkStealingPoolTest, NestedRunInsideATask) {
  constexpr std::size_t kOuter = 4;
  constexpr std::size_t kInner = 8;
  std::atomic<std::uint64_t> inner_runs(0);
  WorkStealingPool::Run(2, kOuter, [&](int, std::size_t) {
    WorkStealingPool::Run(2, kInner, [&](int, std::size_t) {
      inner_runs.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_runs.load(), kOuter * kInner);
}

TEST(WorkStealingPoolTest, TaskExceptionPropagatesToCaller) {
  std::atomic<int> executed(0);
  EXPECT_THROW(
      WorkStealingPool::Run(2, 16,
                            [&](int, std::size_t t) {
                              if (t == 5) throw std::runtime_error("boom");
                              executed.fetch_add(1,
                                                 std::memory_order_relaxed);
                            }),
      std::runtime_error);
  // Tasks not yet started when the throw landed are skipped, never
  // double-run.
  EXPECT_LE(executed.load(), 15);
  // The pool carries no state across runs: a later Run is unaffected.
  std::atomic<int> after(0);
  EXPECT_NO_THROW(WorkStealingPool::Run(2, 8, [&](int, std::size_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  }));
  EXPECT_EQ(after.load(), 8);
}

TEST(WorkStealingPoolTest, ExceptionOnInlinePathStopsRemainingTasks) {
  int executed = 0;
  EXPECT_THROW(WorkStealingPool::Run(1, 4,
                                     [&](int, std::size_t t) {
                                       if (t == 2) {
                                         throw std::runtime_error("boom");
                                       }
                                       ++executed;
                                     }),
               std::runtime_error);
  EXPECT_EQ(executed, 2);
}

TEST(WorkStealingPoolTest, ManyConcurrentThrowsSurfaceExactlyOne) {
  // Every task throws from every worker; exactly one exception must reach
  // the caller (no std::terminate, no leak of the others).
  EXPECT_THROW(WorkStealingPool::Run(4, 8,
                                     [&](int, std::size_t) {
                                       throw std::runtime_error("each");
                                     }),
               std::runtime_error);
}

}  // namespace
}  // namespace geer
