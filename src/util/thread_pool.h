// The library's one fork/join scheduler: a ThreadTeam runs an indexed set
// of chunks on the caller plus a fixed set of helper threads.
//
// Its callers: the batch engine and the ground-truth solvers fan plan
// groups or queries out over a team built per call; λ's operator products
// and R-MAT's sampling waves call one team back to back, so its helpers
// live as long as the team and a call costs a wake-up instead of a thread
// start.
//
// Which thread runs a chunk varies from call to call; callers must make
// chunk RESULTS order-independent (the estimator contract's
// (seed, s, t)-derived streams do exactly that for the batch engine).

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

  /// Runs fn(worker, chunk) for every chunk in [0, num_chunks) and
  /// returns once all of them are done. `worker` ∈ [0, size()) names the
  /// thread: the caller is worker 0 and helper i is worker i for the
  /// team's whole life, so per-worker state indexed by it is never
  /// entered by two threads at once. The caller runs chunks too; each
  /// thread claims the next unclaimed chunk from a shared counter, so
  /// which thread runs a chunk varies from call to call, and a
  /// descheduled helper delays the call by at most the one chunk it
  /// holds. If `fn` throws, the thread that caught it stops claiming
  /// chunks, the others run the rest, and the first exception is
  /// rethrown on the caller once every thread has left the call. A team
  /// of size 1 (or a call of one chunk) runs inline on the caller, where
  /// a throw skips the remaining chunks. A chunk may drive another team.
  void ParallelFor(std::size_t num_chunks,
                   const std::function<void(int, std::size_t)>& fn);

 private:
  void HelperLoop(int worker);
  // Claims and runs chunks of the open call as `worker` until none is
  // left.
  void RunChunks(int worker);
  void StopHelpers();

  // One word holds the call's generation, its closed bit, the stop bit
  // and the number of helpers inside the call, so a helper enters a
  // call only while it is open (see thread_pool.cc). It starts closed.
  std::atomic<std::uint64_t> state_{std::uint64_t{1} << 32};
  std::atomic<std::size_t> next_chunk_{0};
  // Written by the caller before it opens a call; read by helpers that
  // entered it.
  const std::function<void(int, std::size_t)>* fn_ = nullptr;
  std::size_t num_chunks_ = 0;
  std::mutex error_mu_;
  std::exception_ptr error_;  ///< the call's first exception
  std::vector<std::thread> helpers_;
};

}  // namespace geer

#endif  // GEER_UTIL_THREAD_POOL_H_
