#include "loadgen.h"

#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

namespace perfbench {
namespace {

struct InFlight {
  std::uint64_t id = 0;
  std::uint64_t due_ns = 0;
  std::uint64_t submit_ns = 0;
  std::future<geer::QueryResult> future;
};

}  // namespace

OpenLoopResult RunOpenLoop(geer::QuerySubmitter& submitter,
                           const OpenLoopPhase& phase, SpanLog& log) {
  OpenLoopResult result;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> queue;
  bool done = false;

  // The collector resolves futures in arrival order; service-reported
  // times (queue_ms, total_ms) do not depend on when it gets to them.
  std::thread collector([&] {
    while (true) {
      InFlight item;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !queue.empty(); });
        if (queue.empty()) return;
        item = std::move(queue.front());
        queue.pop_front();
      }
      const geer::QueryResult r = item.future.get();
      const std::uint64_t observed_ns = NowNs();
      if (r.status != geer::ServeStatus::kAnswered) {
        ++result.failed;
        continue;
      }
      ++result.answered;
      const double lag = MsBetween(item.due_ns, item.submit_ns);
      result.latency_ms.push_back(lag + r.total_ms);
      result.queue_ms.push_back(r.queue_ms);
      result.exec_ms.push_back(r.total_ms - r.queue_ms);
      result.due_ns.push_back(item.due_ns);
      if (log.enabled()) {
        const std::uint64_t queued_ns =
            item.submit_ns + static_cast<std::uint64_t>(r.queue_ms * 1e6);
        const std::uint64_t total_ns =
            item.submit_ns + static_cast<std::uint64_t>(r.total_ms * 1e6);
        const std::int64_t root = log.Add("serve.query", item.id, -1,
                                          item.due_ns, observed_ns, 1);
        log.Add("gen.lag", item.id, root, item.due_ns, item.submit_ns, 2);
        log.Add("serve.queue", item.id, root, item.submit_ns, queued_ns, 3);
        log.Add("serve.exec", item.id, root, queued_ns, total_ns, 4);
      }
    }
  });

  Rng gaps(phase.schedule_seed);
  const std::uint64_t start_ns = NowNs() + 1'000'000;
  const std::uint64_t end_ns =
      start_ns + static_cast<std::uint64_t>(phase.seconds * 1e9);
  std::uint64_t due_ns = start_ns;
  std::uint64_t next_sample_ns = start_ns;
  for (std::uint64_t i = 0;; ++i) {
    due_ns += static_cast<std::uint64_t>(-std::log1p(-gaps.Uniform()) /
                                         phase.rate_qps * 1e9);
    if (due_ns >= end_ns) break;
    if (NowNs() < due_ns) {
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(due_ns)));
    }
    if (phase.backlog_probe && due_ns >= next_sample_ns) {
      result.backlog.push_back(phase.backlog_probe());
      next_sample_ns += 10'000'000;
    }
    const QueryPair q = phase.queries[i % phase.queries.size()];
    InFlight item;
    item.id = i;
    item.due_ns = due_ns;
    item.submit_ns = NowNs();
    item.future = submitter.Submit(q);
    result.lag_ms.push_back(MsBetween(item.due_ns, item.submit_ns));
    ++result.attempted;
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(std::move(item));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();
  result.windows.start_ns = start_ns;
  result.windows.seconds = phase.seconds;
  return result;
}

bool MeetsServiceLevel(const OpenLoopResult& r, double p99_limit_ms) {
  if (r.failed > 0 || r.answered == 0) return false;
  if (Quantile(r.latency_ms, 0.99) > p99_limit_ms) return false;
  const std::size_t quarter = r.backlog.size() / 4;
  if (quarter == 0) return true;
  double head = 0.0;
  double tail = 0.0;
  for (std::size_t i = 0; i < quarter; ++i) {
    head += r.backlog[i];
    tail += r.backlog[r.backlog.size() - 1 - i];
  }
  head /= static_cast<double>(quarter);
  tail /= static_cast<double>(quarter);
  return tail <= 2.0 * head + 4.0;
}

}  // namespace perfbench
