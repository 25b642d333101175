// QueryService::Answer, the blocking call that at zero linger dispatches
// on its caller's thread: concurrent callers get answers bit-identical to
// the serial Estimate loop at 1 and 2 engine workers; callers racing epoch
// swaps are answered on the epoch their submission order names; callers
// asleep in Answer return under Shutdown (answered by the drain) and
// ShutdownNow (kCancelled); a Submit() queued while a caller holds the
// workers is still dispatched; and at linger > 0 Answer still coalesces
// concurrent callers through the scheduler. Runs under ThreadSanitizer in
// CI: a scheduler that dispatched or swapped while a caller held the
// workers races on the estimators, and a lost wake-up hangs a caller
// until ctest's timeout.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "graph/generators.h"
#include "linalg/spectral.h"
#include "rw/rng.h"
#include "serve/query_service.h"

namespace geer {
namespace {

constexpr NodeId kNodes = 40;

ErOptions TestOptions(const Graph& graph) {
  ErOptions opt;
  opt.epsilon = 0.5;
  opt.delta = 0.1;
  opt.seed = 20261019;
  opt.tp_scale = 0.01;  // determinism, not accuracy, is under test
  opt.lambda = ComputeSpectralBounds(graph).lambda;
  return opt;
}

// Random pairs over the graph's nodes, an s == t query among them.
std::vector<QueryPair> TestQueries(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<QueryPair> queries;
  for (std::size_t i = 0; i < count; ++i) {
    queries.push_back({static_cast<NodeId>(rng.NextBounded(kNodes)),
                       static_cast<NodeId>(rng.NextBounded(kNodes))});
  }
  queries.push_back({5, 5});
  return queries;
}

std::vector<double> SerialValues(const std::string& method,
                                 const Graph& graph,
                                 const std::vector<QueryPair>& queries) {
  auto estimator = CreateEstimator(method, graph, TestOptions(graph));
  std::vector<double> values(queries.size(),
                             std::numeric_limits<double>::quiet_NaN());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (!estimator->SupportsQuery(queries[i].s, queries[i].t)) continue;
    values[i] = estimator->Estimate(queries[i].s, queries[i].t);
  }
  return values;
}

ServeOptions ZeroLinger(int threads) {
  ServeOptions options;
  options.threads = threads;
  options.max_batch_size = 4;
  options.max_linger_seconds = 0.0;
  return options;
}

TEST(ServeAnswerTest, ConcurrentCallersGetSerialAnswers) {
  const Graph graph = gen::ErdosRenyi(kNodes, 400, 9);
  const std::vector<QueryPair> queries = TestQueries(96, 1);
  constexpr std::size_t kCallers = 8;
  for (const std::string method : {"GEER", "TP"}) {
    const std::vector<double> expected = SerialValues(method, graph, queries);
    for (const int threads : {1, 2}) {
      const std::string label = method + " threads=" + std::to_string(threads);
      auto estimator = CreateEstimator(method, graph, TestOptions(graph));
      QueryService service(*estimator, ZeroLinger(threads));
      std::vector<QueryResult> results(queries.size());
      std::vector<std::thread> callers;
      for (std::size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
          for (std::size_t i = c; i < queries.size(); i += kCallers) {
            results[i] = service.Answer(queries[i]);
          }
        });
      }
      for (std::thread& t : callers) t.join();
      for (std::size_t i = 0; i < queries.size(); ++i) {
        if (std::isnan(expected[i])) {
          EXPECT_EQ(results[i].status, ServeStatus::kUnsupported) << label;
          continue;
        }
        ASSERT_EQ(results[i].status, ServeStatus::kAnswered) << label;
        EXPECT_EQ(results[i].stats.value, expected[i])
            << label << " query " << i;
      }
      service.Shutdown();
      const ServeMetrics metrics = service.Metrics();
      EXPECT_EQ(metrics.submitted, queries.size()) << label;
      EXPECT_EQ(metrics.answered + metrics.unsupported, queries.size())
          << label;
      // No Submit() ran: every batch was a caller's, bar any the
      // scheduler took on a spurious wake-up.
      EXPECT_GT(metrics.flush_caller, 0u) << label;
      EXPECT_LE(metrics.flush_caller, metrics.batches) << label;
    }
  }
}

TEST(ServeAnswerTest, SwapsRacingCallersKeepTheWatermark) {
  // Epoch e serves graphs[e % 2]. A caller (Answer() or Submit()) that
  // starts after ApplyUpdates(e) returned must be answered on epoch ≥ e,
  // and one that returns before ApplyUpdates(e + 1) was called on epoch
  // ≤ e; the value must be the serial answer on the epoch's graph.
  const Graph graphs[2] = {gen::ErdosRenyi(kNodes, 400, 9),
                           gen::ErdosRenyi(kNodes, 380, 10)};
  const std::vector<QueryPair> queries = TestQueries(48, 2);
  const std::vector<double> expected[2] = {
      SerialValues("GEER", graphs[0], queries),
      SerialValues("GEER", graphs[1], queries)};
  const double lambdas[2] = {*TestOptions(graphs[0]).lambda,
                             *TestOptions(graphs[1]).lambda};
  std::vector<NodeId> all_nodes(kNodes);
  for (NodeId v = 0; v < kNodes; ++v) all_nodes[v] = v;
  constexpr std::uint64_t kEpochs = 24;
  constexpr std::size_t kCallers = 8;

  for (const int threads : {1, 2}) {
    auto estimator =
        CreateEstimator("GEER", graphs[0], TestOptions(graphs[0]));
    QueryService service(*estimator, ZeroLinger(threads));
    std::atomic<std::uint64_t> started{0};     // ApplyUpdates(e) called
    std::atomic<std::uint64_t> registered{0};  // ApplyUpdates(e) returned
    std::atomic<bool> writer_done{false};
    std::atomic<std::uint64_t> swaps_ok{0};
    std::atomic<std::uint64_t> progress{0};  // answers returned so far
    std::thread writer([&] {
      for (std::uint64_t e = 1; e <= kEpochs; ++e) {
        // Let the callers through a few answers between swaps, so every
        // epoch serves some and swaps land among running callers.
        const std::uint64_t before = progress.load();
        while (progress.load() < before + kCallers) std::this_thread::yield();
        started.store(e);
        std::future<bool> swapped = service.ApplyUpdates(
            e, [&, e](ErEstimator& worker) {
              GraphEpoch epoch;
              epoch.epoch = e;
              epoch.touched = all_nodes;
              epoch.lambda = lambdas[e % 2];
              return worker.RebindGraph(graphs[e % 2], epoch);
            });
        registered.store(e);
        if (swapped.get()) swaps_ok.fetch_add(1);
      }
      writer_done.store(true);
    });
    // What each caller saw, checked on this thread once all have joined.
    struct Seen {
      std::size_t query;
      std::uint64_t lo, hi;
      QueryResult result;
    };
    std::vector<std::vector<Seen>> seen(kCallers);
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        for (std::size_t i = c; !writer_done.load() || i < 4 * queries.size();
             i += kCallers) {
          const std::size_t q = i % queries.size();
          const std::uint64_t lo = registered.load();
          // Every fourth caller goes through Submit(), so the scheduler
          // dispatches beside the Answer() callers too.
          const QueryResult result = c % 4 == 3
                                         ? service.Submit(queries[q]).get()
                                         : service.Answer(queries[q]);
          seen[c].push_back({q, lo, started.load(), result});
          progress.fetch_add(1);
        }
      });
    }
    writer.join();
    for (std::thread& t : callers) t.join();
    std::uint64_t answered = 0;
    std::vector<char> epoch_served(kEpochs + 1, 0);
    for (const std::vector<Seen>& caller : seen) {
      std::uint64_t last_epoch = 0;
      for (const Seen& s : caller) {
        ASSERT_EQ(s.result.status, ServeStatus::kAnswered);
        EXPECT_GE(s.result.epoch, s.lo);
        EXPECT_LE(s.result.epoch, s.hi);
        EXPECT_GE(s.result.epoch, last_epoch);
        last_epoch = s.result.epoch;
        EXPECT_EQ(s.result.stats.value,
                  expected[s.result.epoch % 2][s.query])
            << "threads " << threads << " epoch " << s.result.epoch
            << " query " << s.query;
        ++answered;
        if (s.result.epoch <= kEpochs) epoch_served[s.result.epoch] = 1;
      }
    }
    EXPECT_GT(std::count(epoch_served.begin(), epoch_served.end(), 1),
              static_cast<std::ptrdiff_t>(kEpochs / 2));
    service.Shutdown();
    const ServeMetrics metrics = service.Metrics();
    EXPECT_EQ(swaps_ok.load(), kEpochs);
    EXPECT_EQ(metrics.epoch_swaps, kEpochs);
    EXPECT_EQ(metrics.answered, answered);
  }
}

// Holds the workers in an epoch swap whose rebind blocks until released,
// so Answer() callers arriving meanwhile enqueue and fall asleep.
class HeldWorkers {
 public:
  explicit HeldWorkers(QueryService& service) {
    std::promise<void> entered;
    std::future<void> in_rebind = entered.get_future();
    std::shared_future<void> released = release_.get_future().share();
    swap_ = service.ApplyUpdates(
        1, [entered = std::make_shared<std::promise<void>>(
                std::move(entered)),
            released](ErEstimator&) {
          entered->set_value();
          released.wait();
          return true;
        });
    in_rebind.wait();
  }

  void Release() { release_.set_value(); }
  bool Swapped() { return swap_.get(); }

 private:
  std::promise<void> release_;
  std::future<bool> swap_;
};

// Starts `count` callers blocked in Answer() behind held workers and
// waits until every one of them is queued.
std::vector<std::future<QueryResult>> BlockedCallers(QueryService& service,
                                                     std::size_t count) {
  std::vector<std::future<QueryResult>> callers;
  for (std::size_t c = 0; c < count; ++c) {
    callers.push_back(std::async(std::launch::async, [&service, c] {
      return service.Answer({static_cast<NodeId>(c), 30});
    }));
  }
  while (service.Metrics().submitted < count) std::this_thread::yield();
  return callers;
}

TEST(ServeAnswerTest, ShutdownDrainsSleepingCallers) {
  const Graph graph = gen::ErdosRenyi(kNodes, 400, 9);
  auto estimator = CreateEstimator("GEER", graph, TestOptions(graph));
  QueryService service(*estimator, ZeroLinger(1));
  HeldWorkers held(service);
  std::vector<std::future<QueryResult>> callers = BlockedCallers(service, 4);
  std::thread stopper([&service] { service.Shutdown(); });
  held.Release();
  EXPECT_TRUE(held.Swapped());
  for (std::size_t c = 0; c < callers.size(); ++c) {
    const QueryResult result = callers[c].get();
    EXPECT_EQ(result.status, ServeStatus::kAnswered) << "caller " << c;
    EXPECT_EQ(result.epoch, 1u);
  }
  stopper.join();
  EXPECT_EQ(service.Metrics().answered, callers.size());
}

TEST(ServeAnswerTest, ShutdownNowCancelsSleepingCallers) {
  const Graph graph = gen::ErdosRenyi(kNodes, 400, 9);
  auto estimator = CreateEstimator("GEER", graph, TestOptions(graph));
  QueryService service(*estimator, ZeroLinger(1));
  HeldWorkers held(service);
  std::vector<std::future<QueryResult>> callers = BlockedCallers(service, 4);
  std::thread stopper([&service] { service.ShutdownNow(); });
  // Release the swap only once shutdown has begun (ShutdownNow raises its
  // cancel flag first): a Submit() is then refused. Probes queued before
  // that are cancelled with the callers.
  std::vector<std::future<QueryResult>> probes;
  for (;;) {
    std::future<QueryResult> probe = service.Submit({1, 2});
    // Nothing dispatches while the swap holds the workers: a probe that
    // is ready was refused.
    if (probe.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      EXPECT_EQ(probe.get().status, ServeStatus::kShutdown);
      break;
    }
    probes.push_back(std::move(probe));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  held.Release();
  EXPECT_TRUE(held.Swapped());
  for (std::size_t c = 0; c < callers.size(); ++c) {
    EXPECT_EQ(callers[c].get().status, ServeStatus::kCancelled)
        << "caller " << c;
  }
  for (auto& probe : probes) {
    EXPECT_EQ(probe.get().status, ServeStatus::kCancelled);
  }
  stopper.join();
  EXPECT_EQ(service.Metrics().cancelled, callers.size() + probes.size());
  EXPECT_EQ(service.Answer({1, 2}).status, ServeStatus::kShutdown);
}

// Answers s + t, and blocks inside the query (0, 1) until released: a
// caller dispatching that query holds the workers for as long as a test
// needs.
class GateEstimator : public ErEstimator {
 public:
  std::string Name() const override { return "GATE"; }
  QueryStats EstimateWithStats(NodeId s, NodeId t) override {
    if (s == 0 && t == 1) {
      entered.set_value();
      release.wait();
    }
    QueryStats stats;
    stats.value = s + t;
    return stats;
  }

  std::promise<void> entered;
  std::shared_future<void> release;
};

TEST(ServeAnswerTest, SubmitQueuedBehindACallerIsServed) {
  // A Submit() arriving while a caller holds the workers wakes the
  // scheduler, which must park until the caller lets the workers go and
  // then be woken to dispatch it: no Answer() caller is left to take it.
  GateEstimator estimator;
  std::promise<void> release;
  estimator.release = release.get_future().share();
  std::future<void> entered = estimator.entered.get_future();
  QueryService service(estimator, ZeroLinger(1));
  std::future<QueryResult> caller = std::async(
      std::launch::async, [&service] { return service.Answer({0, 1}); });
  entered.wait();
  std::future<QueryResult> submitted = service.Submit({2, 3});
  // Give the scheduler time to wake and park behind the caller.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.set_value();
  EXPECT_EQ(caller.get().stats.value, 1.0);
  EXPECT_EQ(submitted.get().stats.value, 5.0);
  service.Shutdown();
  const ServeMetrics metrics = service.Metrics();
  EXPECT_EQ(metrics.flush_caller, 1u);
  EXPECT_EQ(metrics.batches, 2u);
}

TEST(ServeAnswerTest, LingerStillCoalescesConcurrentCallers) {
  // At linger > 0 Answer is Submit().get(): two concurrent callers ride
  // one size-triggered batch instead of dispatching one query each.
  const Graph graph = gen::ErdosRenyi(kNodes, 400, 9);
  auto estimator = CreateEstimator("GEER", graph, TestOptions(graph));
  ServeOptions options;
  options.threads = 1;
  options.max_batch_size = 2;
  options.max_linger_seconds = 60.0;
  QueryService service(*estimator, options);
  std::future<QueryResult> first = std::async(
      std::launch::async, [&service] { return service.Answer({1, 2}); });
  const QueryResult second = service.Answer({3, 4});
  const QueryResult first_result = first.get();
  EXPECT_EQ(second.status, ServeStatus::kAnswered);
  EXPECT_EQ(first_result.status, ServeStatus::kAnswered);
  EXPECT_EQ(second.batch_size, 2u);
  EXPECT_EQ(first_result.batch_id, second.batch_id);
  service.Shutdown();
  const ServeMetrics metrics = service.Metrics();
  EXPECT_EQ(metrics.flush_caller, 0u);
  EXPECT_EQ(metrics.flush_size, 1u);
}

}  // namespace
}  // namespace geer
