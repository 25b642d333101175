#include "util/thread_pool.h"

#include <sched.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.h"

namespace geer {
namespace {

// Mutex-guarded deque: contention is per-task-pop, and tasks in this
// library (query groups) are orders of magnitude heavier than a lock, so
// the simple TSan-friendly implementation wins over a lock-free one.
struct TaskDeque {
  std::mutex mu;
  std::deque<std::size_t> tasks;

  bool PopFront(std::size_t* out) {
    std::lock_guard<std::mutex> lock(mu);
    if (tasks.empty()) return false;
    *out = tasks.front();
    tasks.pop_front();
    return true;
  }

  bool StealBack(std::size_t* out) {
    std::lock_guard<std::mutex> lock(mu);
    if (tasks.empty()) return false;
    *out = tasks.back();
    tasks.pop_back();
    return true;
  }
};

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

void WorkStealingPool::Run(
    int workers, std::size_t num_tasks,
    const std::function<void(int, std::size_t)>& fn) {
  if (num_tasks == 0) return;
  workers = ResolveWorkerCount(workers, num_tasks);
  if (workers == 1) {
    // Inline on the caller: an exception propagates directly (remaining
    // tasks skipped), matching the multi-worker rethrow semantics.
    for (std::size_t i = 0; i < num_tasks; ++i) fn(0, i);
    return;
  }

  std::vector<TaskDeque> deques(static_cast<std::size_t>(workers));
  // Round-robin deal preserves rough order within each worker while
  // spreading adjacent (often similarly sized) tasks across workers.
  for (std::size_t i = 0; i < num_tasks; ++i) {
    deques[i % workers].tasks.push_back(i);
  }

  // First task exception, rethrown on the caller after all workers
  // joined — an exception escaping a std::thread would terminate the
  // process. `failed` doubles as a cooperative stop: once set, workers
  // drop their remaining tasks instead of running them.
  std::mutex error_mu;
  std::exception_ptr first_error;
  std::atomic<bool> failed(false);

  auto run_task = [&fn, &error_mu, &first_error, &failed](int id,
                                                          std::size_t task) {
    try {
      fn(id, task);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (first_error == nullptr) first_error = std::current_exception();
      failed.store(true, std::memory_order_release);
    }
  };

  auto worker_loop = [&deques, &run_task, &failed, workers](int id) {
    std::size_t task = 0;
    for (;;) {
      if (failed.load(std::memory_order_acquire)) return;
      if (deques[id].PopFront(&task)) {
        run_task(id, task);
        continue;
      }
      bool stole = false;
      for (int off = 1; off < workers; ++off) {
        const int victim = (id + off) % workers;
        if (deques[victim].StealBack(&task)) {
          stole = true;
          break;
        }
      }
      if (!stole) return;  // all deques empty: done (no task re-entry)
      run_task(id, task);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers) - 1);
  for (int id = 1; id < workers; ++id) {
    threads.emplace_back(worker_loop, id);
  }
  worker_loop(0);  // the caller is worker 0
  for (auto& th : threads) th.join();
  if (first_error != nullptr) std::rethrow_exception(first_error);
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
    for (int i = 0; i < helpers; ++i) {
      helpers_.emplace_back([this] { HelperLoop(); });
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

void ThreadTeam::ParallelFor(std::size_t num_chunks,
                             const std::function<void(std::size_t)>& fn) {
  if (helpers_.empty() || num_chunks <= 1) {
    for (std::size_t i = 0; i < num_chunks; ++i) fn(i);
    return;
  }
  fn_ = &fn;
  num_chunks_ = num_chunks;
  next_chunk_.store(0);
  state_.store((state_.load() & kGenerationMask) + kGenerationUnit);
  state_.notify_all();
  RunChunks();
  state_.fetch_or(kClosed);
  AwaitState(state_, [](std::uint64_t s) { return (s & kActiveMask) == 0; });
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    error = std::exchange(error_, nullptr);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

void ThreadTeam::RunChunks() {
  try {
    for (std::size_t i = next_chunk_.fetch_add(1); i < num_chunks_;
         i = next_chunk_.fetch_add(1)) {
      (*fn_)(i);
    }
  } catch (...) {
    // This thread stops claiming; the others run the remaining chunks.
    std::lock_guard<std::mutex> lock(error_mu_);
    if (error_ == nullptr) error_ = std::current_exception();
  }
}

void ThreadTeam::HelperLoop() {
  std::uint64_t seen = 0;  // the generation this helper last looked at
  for (;;) {
    std::uint64_t s = AwaitState(state_, [seen](std::uint64_t v) {
      return (v & kGenerationMask) != seen;
    });
    if (s & kStop) return;
    seen = s & kGenerationMask;
    while (!(s & kClosed) && (s & kGenerationMask) == seen) {
      if (state_.compare_exchange_weak(s, s + 1)) {
        RunChunks();
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
