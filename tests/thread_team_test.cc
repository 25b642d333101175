// util/thread_pool: ResolveWorkerCount's clamps and affinity-mask
// default, and ThreadTeam: every chunk runs exactly once, each thread
// keeps one worker index in [0, size()) across calls, the caller runs
// chunks too, a team of one starts no thread, more threads than chunks
// is fine, back-to-back calls lose no wake-up (also after the helpers
// went to sleep), a chunk's exception reaches the caller (exactly one
// when many throw at once), a chunk may drive another team, and a team
// is destroyed cleanly while idle.

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace geer {
namespace {

// The number of threads of this process, from /proc/self/status (0 where
// it cannot be read).
int ProcessThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      int threads = 0;
      status >> threads;
      return threads;
    }
    std::getline(status, key);
  }
  return 0;
}

// Polls the thread count until it equals `want`, for up to a second: a
// joined thread is counted until the kernel reaps it, shortly after.
int ThreadCountEventually(int want) {
  int count = ProcessThreadCount();
  for (int i = 0; i < 200 && count != want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    count = ProcessThreadCount();
  }
  return count;
}

TEST(ResolveWorkerCountTest, ClampsToTaskCountAndFloorsAtOne) {
  EXPECT_EQ(ResolveWorkerCount(5, 3), 3);
  EXPECT_EQ(ResolveWorkerCount(1, 100), 1);
  EXPECT_EQ(ResolveWorkerCount(4, 100), 4);
  EXPECT_EQ(ResolveWorkerCount(4, 0), 1);   // never zero workers
  EXPECT_GE(ResolveWorkerCount(0, 1000000), 1);  // 0 = the affinity mask
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

TEST(ThreadTeamTest, EveryChunkRunsExactlyOnce) {
  for (const int size : {1, 2, 3, 4}) {
    ThreadTeam team(size);
    EXPECT_EQ(team.size(), size);
    for (const std::size_t chunks : {0u, 1u, 2u, 7u, 64u, 1000u}) {
      std::vector<std::atomic<int>> runs(chunks);
      team.ParallelFor(chunks, [&runs](int, std::size_t c) {
        runs[c].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t c = 0; c < chunks; ++c) {
        ASSERT_EQ(runs[c].load(), 1)
            << "size " << size << " chunks " << chunks << " chunk " << c;
      }
    }
  }
}

// The test binary runs its tests on the main thread alone.
TEST(ThreadTeamTest, SizeOneStartsNoThreadAndRunsInline) {
  const int before = ThreadCountEventually(1);
  ThreadTeam team(1);
  EXPECT_EQ(team.size(), 1);
  EXPECT_EQ(ProcessThreadCount(), before);
  const std::thread::id caller = std::this_thread::get_id();
  bool all_inline = true;
  team.ParallelFor(50, [&](int worker, std::size_t) {
    all_inline = all_inline && worker == 0 &&
                 std::this_thread::get_id() == caller;
  });
  EXPECT_TRUE(all_inline);
  EXPECT_EQ(ProcessThreadCount(), before);
  // Sizes below 1 are a team of one.
  ThreadTeam zero(0);
  EXPECT_EQ(zero.size(), 1);
  EXPECT_EQ(ProcessThreadCount(), before);
}

TEST(ThreadTeamTest, StartsSizeMinusOneHelpers) {
  const int before = ThreadCountEventually(1);
  if (before == 0) GTEST_SKIP() << "no /proc/self/status";
  {
    ThreadTeam team(3);
    EXPECT_EQ(ProcessThreadCount(), before + 2);
  }
  EXPECT_EQ(ThreadCountEventually(before), before);
}

// Each helper's first chunk waits until the caller has run a chunk. With
// more chunks than helpers, the helpers cannot take them all, so the call
// finishes only if the caller claims chunks itself.
TEST(ThreadTeamTest, CallerRunsChunks) {
  ThreadTeam team(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> caller_ran(false);
  team.ParallelFor(static_cast<std::size_t>(team.size()) + 1,
                   [&](int, std::size_t) {
                     if (std::this_thread::get_id() == caller) {
                       caller_ran.store(true);
                       return;
                     }
                     while (!caller_ran.load()) std::this_thread::yield();
                   });
  EXPECT_TRUE(caller_ran.load());
}

TEST(ThreadTeamTest, MoreThreadsThanChunks) {
  ThreadTeam team(4);
  for (int call = 0; call < 200; ++call) {
    std::atomic<int> runs[2] = {0, 0};
    team.ParallelFor(2,
                     [&runs](int, std::size_t c) { runs[c].fetch_add(1); });
    ASSERT_EQ(runs[0].load(), 1) << "call " << call;
    ASSERT_EQ(runs[1].load(), 1) << "call " << call;
  }
}

// 10⁴ calls back to back, with a pause every 1000 calls long enough for
// the helpers to stop spinning and block: a lost wake-up hangs the test,
// a chunk run twice or skipped breaks the sum. Each call's chunk writes
// are read by the caller after the call, without further synchronization.
TEST(ThreadTeamTest, BackToBackCallsLoseNoWakeUp) {
  ThreadTeam team(4);
  constexpr std::size_t kChunks = 16;
  std::vector<long> slot(kChunks, 0);
  long expected = 0;
  for (int call = 1; call <= 10000; ++call) {
    const std::size_t chunks = 1 + static_cast<std::size_t>(call) % kChunks;
    team.ParallelFor(chunks,
                     [&slot, call](int, std::size_t c) { slot[c] += call; });
    for (std::size_t c = 0; c < chunks; ++c) expected += call;
    if (call % 1000 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  long total = 0;
  for (long v : slot) total += v;
  EXPECT_EQ(total, expected);
}

// A throwing chunk surfaces on the caller after the call; the chunks the
// other threads claimed still ran, and the team serves the next call.
TEST(ThreadTeamTest, ChunkExceptionIsRethrownOnCaller) {
  for (const int size : {1, 4}) {
    ThreadTeam team(size);
    std::vector<std::atomic<int>> runs(64);
    EXPECT_THROW(team.ParallelFor(64,
                                  [&runs](int, std::size_t c) {
                                    runs[c].fetch_add(1);
                                    if (c == 5) throw std::runtime_error("5");
                                  }),
                 std::runtime_error);
    EXPECT_EQ(runs[5].load(), 1);
    for (const auto& r : runs) EXPECT_LE(r.load(), 1);
    std::atomic<int> again(0);
    team.ParallelFor(64,
                     [&again](int, std::size_t) { again.fetch_add(1); });
    EXPECT_EQ(again.load(), 64) << "size " << size;
  }
}

// At size 1 the chunks run inline on the caller, so a throw skips the
// remaining chunks, as in a plain loop.
TEST(ThreadTeamTest, ThrowAtSizeOneStopsRemainingChunks) {
  ThreadTeam team(1);
  std::vector<int> runs(4, 0);
  EXPECT_THROW(team.ParallelFor(4,
                                [&runs](int, std::size_t c) {
                                  if (c == 2) throw std::runtime_error("2");
                                  ++runs[c];
                                }),
               std::runtime_error);
  EXPECT_EQ(runs, (std::vector<int>{1, 1, 0, 0}));
}

// Every thread of the team throws from its first chunk while the others
// are inside theirs. One exception reaches the caller (no
// std::terminate), every thread stopped after its throw, and no
// exception is left over for the next call.
TEST(ThreadTeamTest, ManyConcurrentThrowsSurfaceExactlyOne) {
  ThreadTeam team(4);
  const int size = team.size();
  std::atomic<int> entered(0);
  std::vector<std::atomic<int>> runs(64);
  std::size_t thrown_chunk = runs.size();
  try {
    team.ParallelFor(runs.size(), [&](int, std::size_t c) {
      runs[c].fetch_add(1);
      entered.fetch_add(1);
      while (entered.load() < size) std::this_thread::yield();
      throw c;
    });
  } catch (std::size_t c) {
    thrown_chunk = c;
  }
  ASSERT_LT(thrown_chunk, runs.size());
  EXPECT_EQ(runs[thrown_chunk].load(), 1);
  int ran = 0;
  for (const auto& r : runs) ran += r.load();
  EXPECT_EQ(ran, size);
  std::atomic<int> again(0);
  EXPECT_NO_THROW(team.ParallelFor(
      64, [&again](int, std::size_t) { again.fetch_add(1); }));
  EXPECT_EQ(again.load(), 64);
}

// `worker` is in [0, size()), the caller is worker 0, and each index
// belongs to one thread for the team's whole life: per-worker state
// indexed by it is never shared between threads.
TEST(ThreadTeamTest, WorkerIndexIsStableAcrossCalls) {
  for (const int size : {1, 2, 4}) {
    ThreadTeam team(size);
    std::mutex mu;
    std::vector<std::thread::id> owner(static_cast<std::size_t>(size));
    bool out_of_range = false;
    bool owner_changed = false;
    for (int call = 0; call < 200; ++call) {
      team.ParallelFor(16, [&](int worker, std::size_t) {
        std::lock_guard<std::mutex> lock(mu);
        if (worker < 0 || worker >= size) {
          out_of_range = true;
          return;
        }
        std::thread::id& id = owner[static_cast<std::size_t>(worker)];
        if (id == std::thread::id()) id = std::this_thread::get_id();
        if (id != std::this_thread::get_id()) owner_changed = true;
      });
      if (call % 50 == 49) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    EXPECT_FALSE(out_of_range) << "size " << size;
    EXPECT_FALSE(owner_changed) << "size " << size;
    EXPECT_EQ(owner[0], std::this_thread::get_id()) << "size " << size;
    for (int a = 0; a < size; ++a) {
      for (int b = a + 1; b < size; ++b) {
        if (owner[a] == std::thread::id()) continue;  // never ran a chunk
        EXPECT_NE(owner[a], owner[b]) << "size " << size;
      }
    }
  }
}

// A chunk may drive another team: one kept per outer worker (as the
// batch engine keeps an estimator per worker), or one it builds itself
// (as RunQueryBatch does when called from a chunk).
TEST(ThreadTeamTest, ChunkMayDriveAnotherTeam) {
  ThreadTeam outer(2);
  std::vector<std::unique_ptr<ThreadTeam>> inner;
  for (int w = 0; w < outer.size(); ++w) {
    inner.push_back(std::make_unique<ThreadTeam>(2));
  }
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  std::atomic<std::size_t> runs(0);
  outer.ParallelFor(kOuter, [&](int worker, std::size_t c) {
    auto count = [&runs](int, std::size_t) { runs.fetch_add(1); };
    if (c % 2 == 0) {
      inner[static_cast<std::size_t>(worker)]->ParallelFor(kInner, count);
    } else {
      ThreadTeam own(2);
      own.ParallelFor(kInner, count);
    }
  });
  EXPECT_EQ(runs.load(), kOuter * kInner);
}

TEST(ThreadTeamTest, DestroyedWhileIdle) {
  {
    ThreadTeam team(4);  // never used
  }
  {
    ThreadTeam team(4);
    std::atomic<int> runs(0);
    team.ParallelFor(8, [&runs](int, std::size_t) { runs.fetch_add(1); });
    EXPECT_EQ(runs.load(), 8);
  }  // helpers still spinning
  {
    ThreadTeam team(4);
    std::atomic<int> runs(0);
    team.ParallelFor(8, [&runs](int, std::size_t) { runs.fetch_add(1); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(runs.load(), 8);
  }  // helpers blocked
}

}  // namespace
}  // namespace geer
