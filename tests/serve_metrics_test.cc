// The serving metrics contract: ServeMetrics is the one store every
// serve event is counted in, per service (two services of the same
// method in one process never see each other's samples), and
// ServeStatsSnapshot renders it under the series names the stats scrape
// (`net stats`, `geer_cli serve|dynamic --obs-dump`) exports.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "graph/generators.h"
#include "linalg/spectral.h"
#include "obs/stats.h"
#include "serve/query_service.h"

namespace geer {
namespace {

class ServeMetricsTest : public ::testing::Test {
 protected:
  ServeMetricsTest() : graph_(gen::ErdosRenyi(60, 700, 3)) {
    options_.epsilon = 0.5;
    options_.delta = 0.1;
    options_.seed = 7;
    options_.lambda = ComputeSpectralBounds(graph_).lambda;
  }

  /// Submits `queries` (no deadline) and waits for every answer.
  static void ServeAll(QueryService& service,
                       const std::vector<QueryPair>& queries) {
    std::vector<std::future<QueryResult>> futures;
    for (const QueryPair& q : queries) futures.push_back(service.Submit(q));
    for (auto& f : futures) {
      ASSERT_EQ(f.get().status, ServeStatus::kAnswered);
    }
  }

  Graph graph_;
  ErOptions options_;
};

TEST_F(ServeMetricsTest, LatencyHistogramIsPerService) {
  // Two same-method services, one after the other: the second one's
  // served-latency histogram holds exactly its own resolved queries.
  const std::vector<QueryPair> first = {{1, 2}, {3, 4}, {5, 6}, {7, 8}};
  const std::vector<QueryPair> second = {{9, 10}, {11, 12}};
  ServeOptions serve_options;
  serve_options.threads = 1;
  serve_options.max_linger_seconds = 0.0;
  {
    auto estimator = CreateEstimator("GEER", graph_, options_);
    QueryService service(*estimator, serve_options);
    ServeAll(service, first);
    service.Shutdown();
    EXPECT_EQ(service.Metrics().served_latency.count, first.size());
  }
  auto estimator = CreateEstimator("GEER", graph_, options_);
  QueryService service(*estimator, serve_options);
  ServeAll(service, second);
  service.Shutdown();
  const ServeMetrics metrics = service.Metrics();
  EXPECT_EQ(metrics.answered, second.size());
  EXPECT_EQ(metrics.served_latency.count, second.size());
  EXPECT_EQ(metrics.queue_wait.count, second.size());
}

TEST_F(ServeMetricsTest, FlushCallerCountsBatchesRunByAnswer) {
  // On an idle zero-linger service nothing holds the workers, so each
  // Answer() dispatches its own one-query batch on the calling thread.
  auto estimator = CreateEstimator("GEER", graph_, options_);
  const std::string method = estimator->Name();
  ServeOptions serve_options;
  serve_options.threads = 1;
  serve_options.max_linger_seconds = 0.0;
  QueryService service(*estimator, serve_options);
  for (const QueryPair q : {QueryPair{1, 2}, QueryPair{3, 4}}) {
    EXPECT_EQ(service.Answer(q).status, ServeStatus::kAnswered);
  }
  ServeAll(service, {{5, 6}});  // Submit(): the scheduler dispatches it
  service.Shutdown();
  const ServeMetrics metrics = service.Metrics();
  EXPECT_EQ(metrics.flush_caller, 2u);
  EXPECT_EQ(metrics.batches, 3u);
  EXPECT_EQ(metrics.answered, 3u);
  const obs::StatsSnapshot snapshot = ServeStatsSnapshot(metrics, method);
  EXPECT_EQ(snapshot.counters.at("geer_serve_flush_caller_total{method=\"" +
                                 method + "\"}"),
            2u);
}

TEST_F(ServeMetricsTest, SnapshotCarriesEverySeriesName) {
  auto estimator = CreateEstimator("GEER", graph_, options_);
  const std::string method = estimator->Name();
  ServeOptions serve_options;
  serve_options.threads = 2;
  serve_options.max_linger_seconds = 0.0;
  serve_options.max_queue = 3;
  QueryService service(*estimator, serve_options);

  ServeAll(service, {{1, 2}, {1, 3}});

  // An epoch swap whose rebind blocks on a latch holds the scheduler
  // between micro-batches (the rebind rebinds nothing; the swap only
  // bumps the epoch). Queries submitted meanwhile stay queued until
  // their deadlines lapse, and one past max_queue is rejected.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::future<bool> swap = service.ApplyUpdates(1, [released](ErEstimator&) {
    released.wait();
    return true;
  });
  std::vector<std::future<QueryResult>> expiring;
  expiring.push_back(service.Submit({4, 5}, 0.005));  // tight
  expiring.push_back(service.Submit({4, 6}, 0.050));  // normal
  expiring.push_back(service.Submit({4, 7}, 0.150));  // loose
  EXPECT_EQ(service.Submit({4, 8}).get().status, ServeStatus::kRejected);
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  release.set_value();
  ASSERT_TRUE(swap.get());
  for (auto& f : expiring) {
    EXPECT_EQ(f.get().status, ServeStatus::kExpired);
  }

  // Answered on the new epoch, with no Flush(): the dispatch tail alone
  // must publish the session-cache gauge.
  ServeAll(service, {{2, 9}, {2, 11}});
  ServeMetrics metrics = service.Metrics();
  while (metrics.answered < 4 || metrics.expired < 3) {
    std::this_thread::yield();
    metrics = service.Metrics();
  }

  const obs::StatsSnapshot snapshot = ServeStatsSnapshot(metrics, method);
  const std::string label = "{method=\"" + method + "\"}";
  EXPECT_EQ(snapshot.counters.at("geer_serve_submitted_total" + label), 7u);
  EXPECT_EQ(snapshot.counters.at("geer_serve_answered_total" + label), 4u);
  EXPECT_EQ(snapshot.counters.at("geer_serve_rejected_total" + label), 1u);
  EXPECT_EQ(snapshot.counters.at("geer_serve_batches_total" + label),
            metrics.batches);
  EXPECT_GE(metrics.batches, 2u);  // the all-expired batch is not counted
  for (const char* cls : {"none", "tight", "normal", "loose"}) {
    const std::string name = "geer_serve_expired_total{method=\"" + method +
                             "\",class=\"" + cls + "\"}";
    ASSERT_EQ(snapshot.counters.count(name), 1u) << name;
    EXPECT_EQ(snapshot.counters.at(name), std::string(cls) == "none" ? 0u : 1u)
        << name;
  }
  EXPECT_EQ(snapshot.counters.at("geer_serve_flush_caller_total" + label),
            0u);  // every query went through Submit()
  EXPECT_EQ(snapshot.counters.size(), 9u);

  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges.at("geer_serve_session_cache_bytes" + label),
            static_cast<double>(metrics.session_cache.bytes));
  EXPECT_GT(metrics.session_cache.bytes, 0u);

  EXPECT_EQ(snapshot.histograms.size(), 4u);
  EXPECT_EQ(snapshot.histograms.at("geer_serve_latency_ns" + label).count,
            7u);  // every resolved query: 4 answered + 3 expired
  EXPECT_EQ(snapshot.histograms.at("geer_serve_queue_wait_ns" + label).count,
            7u);
  EXPECT_EQ(snapshot.histograms.at("geer_serve_epoch_swap_ns" + label).count,
            1u);
  EXPECT_EQ(snapshot.histograms.at("geer_rebind_ns").count,
            static_cast<std::uint64_t>(service.workers()));
  EXPECT_EQ(metrics.epoch_swaps, 1u);
  service.Shutdown();
}

}  // namespace
}  // namespace geer
