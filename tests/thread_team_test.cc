// util/thread_pool's ThreadTeam: every chunk runs exactly once, the
// caller runs chunks too, a team of one starts no thread, more threads
// than chunks is fine, back-to-back calls lose no wake-up (also after the
// helpers went to sleep), a chunk's exception reaches the caller, and a
// team is destroyed cleanly while idle.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <fstream>
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

TEST(ThreadTeamTest, EveryChunkRunsExactlyOnce) {
  for (const int size : {1, 2, 3, 4}) {
    ThreadTeam team(size);
    EXPECT_EQ(team.size(), size);
    for (const std::size_t chunks : {0u, 1u, 2u, 7u, 64u, 1000u}) {
      std::vector<std::atomic<int>> runs(chunks);
      team.ParallelFor(chunks, [&runs](std::size_t c) {
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
  team.ParallelFor(50, [&](std::size_t) {
    all_inline = all_inline && std::this_thread::get_id() == caller;
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
                   [&](std::size_t) {
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
    team.ParallelFor(2, [&runs](std::size_t c) { runs[c].fetch_add(1); });
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
    team.ParallelFor(chunks, [&slot, call](std::size_t c) { slot[c] += call; });
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
                                  [&runs](std::size_t c) {
                                    runs[c].fetch_add(1);
                                    if (c == 5) throw std::runtime_error("5");
                                  }),
                 std::runtime_error);
    EXPECT_EQ(runs[5].load(), 1);
    for (const auto& r : runs) EXPECT_LE(r.load(), 1);
    std::atomic<int> again(0);
    team.ParallelFor(64, [&again](std::size_t) { again.fetch_add(1); });
    EXPECT_EQ(again.load(), 64) << "size " << size;
  }
}

TEST(ThreadTeamTest, DestroyedWhileIdle) {
  {
    ThreadTeam team(4);  // never used
  }
  {
    ThreadTeam team(4);
    std::atomic<int> runs(0);
    team.ParallelFor(8, [&runs](std::size_t) { runs.fetch_add(1); });
    EXPECT_EQ(runs.load(), 8);
  }  // helpers still spinning
  {
    ThreadTeam team(4);
    std::atomic<int> runs(0);
    team.ParallelFor(8, [&runs](std::size_t) { runs.fetch_add(1); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(runs.load(), 8);
  }  // helpers blocked
}

}  // namespace
}  // namespace geer
