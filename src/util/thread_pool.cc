#include "util/thread_pool.h"

#include <sched.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

namespace geer {
namespace {

// ThreadTeam::state_: bits 0–31 count the helpers inside the current
// call, bit 32 marks it closed, bit 33 asks the helpers to exit, and the
// bits above count calls.
constexpr std::uint64_t kActiveMask = 0xFFFFFFFFull;
constexpr std::uint64_t kClosed = 1ull << 32;
constexpr std::uint64_t kStop = 1ull << 33;
constexpr std::uint64_t kGenerationUnit = 1ull << 34;
constexpr std::uint64_t kGenerationMask = ~(kGenerationUnit - 1);

// How long a thread of a ThreadTeam spins before it blocks: longer than
// the serial work between two operator products of a Lanczos step.
constexpr auto kSpinBudget = std::chrono::microseconds(200);

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

// Loads `state` until `done` holds for its value: spinning for
// kSpinBudget, then blocking in atomic wait. Returns the value.
template <typename Done>
std::uint64_t AwaitState(const std::atomic<std::uint64_t>& state, Done done) {
  std::uint64_t s = state.load();
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  bool spinning = true;
  for (unsigned spins = 1; !done(s); ++spins) {
    if (spinning) {
      CpuRelax();
      if (spins % 64 == 0 && std::chrono::steady_clock::now() > deadline) {
        spinning = false;
      }
    } else {
      state.wait(s);
    }
    s = state.load();
  }
  return s;
}

}  // namespace

int ResolveWorkerCount(int requested, std::size_t num_tasks) {
  int workers = requested;
  if (workers <= 0) {
    // The CPUs this process may run on: its affinity mask, which
    // hardware_concurrency() ignores.
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      workers = CPU_COUNT(&set);
    }
#endif
    if (workers <= 0) {
      workers = static_cast<int>(std::thread::hardware_concurrency());
    }
  }
  if (workers <= 0) workers = 1;
  if (static_cast<std::size_t>(workers) > num_tasks) {
    workers = static_cast<int>(num_tasks);
  }
  return workers < 1 ? 1 : workers;
}

// A call opens by publishing a new generation with the closed bit clear.
// A helper enters it with a CAS that bumps the active count, which fails
// once the caller has set the closed bit, so no helper enters a call
// after the caller stopped waiting for it. The caller returns when the
// call is closed and no helper is inside: every chunk was claimed, and
// each claimer has finished its chunk. Helpers that wake too late skip
// the call; the generation tells them a new one opened.
ThreadTeam::ThreadTeam(int size) {
  const int helpers = size > 1 ? size - 1 : 0;
  helpers_.reserve(static_cast<std::size_t>(helpers));
  try {
    for (int i = 1; i <= helpers; ++i) {
      helpers_.emplace_back([this, i] { HelperLoop(i); });
    }
  } catch (...) {
    StopHelpers();  // join the helpers that did start
    throw;
  }
}

ThreadTeam::~ThreadTeam() { StopHelpers(); }

void ThreadTeam::StopHelpers() {
  state_.store(((state_.load() & kGenerationMask) + kGenerationUnit) |
               kClosed | kStop);
  state_.notify_all();
  for (std::thread& helper : helpers_) helper.join();
}

void ThreadTeam::ParallelFor(
    std::size_t num_chunks, const std::function<void(int, std::size_t)>& fn) {
  if (helpers_.empty() || num_chunks <= 1) {
    for (std::size_t i = 0; i < num_chunks; ++i) fn(0, i);
    return;
  }
  fn_ = &fn;
  num_chunks_ = num_chunks;
  next_chunk_.store(0);
  state_.store((state_.load() & kGenerationMask) + kGenerationUnit);
  state_.notify_all();
  RunChunks(0);
  state_.fetch_or(kClosed);
  AwaitState(state_, [](std::uint64_t s) { return (s & kActiveMask) == 0; });
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    error = std::exchange(error_, nullptr);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

void ThreadTeam::RunChunks(int worker) {
  try {
    for (std::size_t i = next_chunk_.fetch_add(1); i < num_chunks_;
         i = next_chunk_.fetch_add(1)) {
      (*fn_)(worker, i);
    }
  } catch (...) {
    // This thread stops claiming; the others run the remaining chunks.
    std::lock_guard<std::mutex> lock(error_mu_);
    if (error_ == nullptr) error_ = std::current_exception();
  }
}

void ThreadTeam::HelperLoop(int worker) {
  std::uint64_t seen = 0;  // the generation this helper last looked at
  for (;;) {
    std::uint64_t s = AwaitState(state_, [seen](std::uint64_t v) {
      return (v & kGenerationMask) != seen;
    });
    if (s & kStop) return;
    seen = s & kGenerationMask;
    while (!(s & kClosed) && (s & kGenerationMask) == seen) {
      if (state_.compare_exchange_weak(s, s + 1)) {
        RunChunks(worker);
        const std::uint64_t prev = state_.fetch_sub(1);
        if ((prev & kActiveMask) == 1 && (prev & kClosed)) {
          state_.notify_all();
        }
        break;
      }
    }
  }
}

}  // namespace geer
