// Two fork/join schedulers over an indexed task set.
//
// WorkStealingPool is the batch engine's: a small work-stealing pool for
// query execution, whose threads live for one Run().
//
// One Run() fans a fixed task set out over N workers: tasks are dealt
// round-robin into per-worker deques up front; each worker drains its own
// deque from the front and, when empty, steals from the back of a victim's
// deque. The calling thread participates as worker 0, so Run(1, …) is an
// inline loop with zero threading overhead — the batch engine relies on
// that for its bit-identical single-thread mode.
//
// Scheduling order is non-deterministic across runs; callers must make
// task RESULTS order-independent (the estimator contract's
// (seed, s, t)-derived streams do exactly that).
//
// ThreadTeam is for short data-parallel loops called back to back, such
// as one sparse matrix-vector product per Lanczos step: its helper
// threads live as long as the team, so a call costs a wake-up instead of
// a thread start.

#ifndef GEER_UTIL_THREAD_POOL_H_
#define GEER_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace geer {

/// Resolves a requested worker count: 0 → the CPUs this process may run
/// on (its affinity mask), then clamped to [1, num_tasks] (never more
/// workers than tasks).
int ResolveWorkerCount(int requested, std::size_t num_tasks);

/// A work-stealing scheduler over an indexed task set.
class WorkStealingPool {
 public:
  /// Runs fn(worker_id, task_index) for every task in [0, num_tasks),
  /// blocking until all tasks finished. worker_id ∈ [0, workers);
  /// `workers` is resolved via ResolveWorkerCount. A task that wants to
  /// stop the run early must coordinate through its own state (e.g. a
  /// BatchContext) — as long as no task throws, the pool dispatches
  /// every task.
  ///
  /// Exceptions: if a task throws, the FIRST exception is rethrown on
  /// the calling thread after every worker has stopped (no std::terminate
  /// from a detached worker) — and tasks not yet started by then are
  /// SKIPPED, voiding the every-task guarantee for that run. A task that
  /// blocks on a sibling task's side effect must therefore not share a
  /// run with tasks that may throw: the awaited sibling could be skipped
  /// and the run would never finish. Nested Run calls from inside a task
  /// are allowed — each Run owns its deques, so the inner run just adds
  /// workers for its own task set.
  static void Run(int workers, std::size_t num_tasks,
                  const std::function<void(int, std::size_t)>& fn);
};

/// A persistent team of `size` threads for data-parallel loops: the
/// caller plus size − 1 helper threads, started by the constructor and
/// joined by the destructor. A team of size 1 starts no thread.
///
/// Between calls the helpers spin for a bounded time, so a loop of
/// back-to-back calls finds them awake, and then block on an atomic
/// wait. They allocate nothing after construction. One thread drives a
/// team: ParallelFor must not be called concurrently, or from inside a
/// chunk, on the same team.
class ThreadTeam {
 public:
  explicit ThreadTeam(int size);
  ~ThreadTeam();
  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  /// The caller plus the helpers.
  int size() const { return static_cast<int>(helpers_.size()) + 1; }

  /// Runs fn(chunk) for every chunk in [0, num_chunks) and returns once
  /// all of them are done. The caller runs chunks too; each thread claims
  /// the next unclaimed chunk from a shared counter, so which thread runs
  /// a chunk varies from call to call, and a descheduled helper delays
  /// the call by at most the one chunk it holds. If `fn` throws, the
  /// thread that caught it stops claiming chunks, the others run the
  /// rest, and the first exception is rethrown on the caller once every
  /// thread has left the call.
  void ParallelFor(std::size_t num_chunks,
                   const std::function<void(std::size_t)>& fn);

 private:
  void HelperLoop();
  // Claims and runs chunks of the open call until none is left.
  void RunChunks();
  void StopHelpers();

  // One word holds the call's generation, its closed bit, the stop bit
  // and the number of helpers inside the call, so a helper enters a
  // call only while it is open (see thread_pool.cc). It starts closed.
  std::atomic<std::uint64_t> state_{std::uint64_t{1} << 32};
  std::atomic<std::size_t> next_chunk_{0};
  // Written by the caller before it opens a call; read by helpers that
  // entered it.
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t num_chunks_ = 0;
  std::mutex error_mu_;
  std::exception_ptr error_;  ///< the call's first exception
  std::vector<std::thread> helpers_;
};

}  // namespace geer

#endif  // GEER_UTIL_THREAD_POOL_H_
