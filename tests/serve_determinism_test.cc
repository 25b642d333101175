// The serving determinism contract, the serving layer's analogue of
// batch_determinism_test: for a fixed (seed, trace), every answer the
// QueryService produces is BIT-IDENTICAL to the serial Estimate loop —
// at 1, 2 and 8 scheduler worker threads, under any micro-batch
// boundary (max_batch_size 1 / small / unbounded), under a shuffled
// arrival order, with concurrent client submitters, and with session
// caches on or off, and with landmark warm-up configured. Also pins the
// session/landmark cache observability contract (ServeMetrics exposes
// the LruByteCache counters) and the service's lifecycle semantics:
// deadline expiry, backpressure rejection, ShutdownNow cancellation and
// submit-after-shutdown all resolve every future. The suite runs under
// ThreadSanitizer in CI.

#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "centrality/landmarks.h"
#include "core/batch_engine.h"
#include "core/registry.h"
#include "eval/arrival_trace.h"
#include "eval/experiment.h"
#include "graph/generators.h"
#include "linalg/spectral.h"
#include "serve/query_service.h"
#include "test_util.h"

namespace geer {
namespace {

ErOptions TestOptions() {
  ErOptions opt;
  opt.epsilon = 0.5;
  opt.delta = 0.1;
  opt.seed = 20260801;
  opt.tp_scale = 0.01;   // scaled constants keep the suite fast; this
  opt.tpc_scale = 0.01;  // suite checks determinism, not accuracy
  opt.mc_gamma_upper = 8.0;
  return opt;
}

// Same shape as the batch suite's set: a same-source block (with a
// duplicate), scattered pairs, an s == t query, two genuine edges (so
// the edge-only baselines answer something), and a non-consecutive
// return to the shared source.
std::vector<QueryPair> TestQueries(const Graph& skeleton) {
  std::vector<QueryPair> queries = {{3, 1},  {3, 5},  {3, 9}, {3, 13},
                                    {3, 17}, {3, 5},  {7, 2}, {11, 4},
                                    {0, 19}, {6, 6},  {3, 2}};
  queries.push_back({0, skeleton.NeighborAt(0, 0)});
  queries.push_back({4, skeleton.NeighborAt(4, 0)});
  return queries;
}

std::vector<double> SerialValues(ErEstimator* estimator,
                                 const std::vector<QueryPair>& queries) {
  std::vector<double> values(queries.size(),
                             std::numeric_limits<double>::quiet_NaN());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (!estimator->SupportsQuery(queries[i].s, queries[i].t)) continue;
    values[i] = estimator->Estimate(queries[i].s, queries[i].t);
  }
  return values;
}

// Compressed replay (no arrival sleeps): micro-batch boundaries are
// then scheduler-timing dependent, which is exactly the perturbation
// the determinism contract must be immune to.
ServedWorkloadResult Serve(ErEstimator* estimator,
                           const std::vector<TraceEvent>& trace,
                           const ServeOptions& options) {
  return RunServedWorkload(*estimator, trace, options,
                           /*deadline_seconds=*/0.0, /*realtime=*/false);
}

void ExpectServedMatchesSerial(const ServedWorkloadResult& served,
                               const std::vector<TraceEvent>& trace,
                               const std::vector<double>& expected,
                               const std::string& label) {
  ASSERT_EQ(served.values.size(), trace.size()) << label;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (std::isnan(expected[i])) {
      EXPECT_EQ(served.statuses[i], ServeStatus::kUnsupported)
          << label << " event #" << i;
    } else {
      EXPECT_EQ(served.statuses[i], ServeStatus::kAnswered)
          << label << " event #" << i;
      EXPECT_EQ(served.values[i], expected[i])
          << label << " event #" << i << " (" << trace[i].query.s << ","
          << trace[i].query.t << ")";
    }
  }
}

class ServeDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = gen::ErdosRenyi(40, 400, 9);
    options_ = TestOptions();
    options_.lambda = ComputeSpectralBounds(graph_).lambda;
    queries_ = TestQueries(graph_);
    trace_ = MakeOpenLoopTrace(queries_, /*qps=*/0.0, options_.seed);
  }

  Graph graph_;
  ErOptions options_;
  std::vector<QueryPair> queries_;
  std::vector<TraceEvent> trace_;
};

TEST_F(ServeDeterminismTest, EveryAlgorithmServedBitIdentical) {
  for (const std::string& name : EstimatorNames()) {
    auto serial = CreateEstimator(name, graph_, options_);
    ASSERT_NE(serial, nullptr) << name;
    const std::vector<double> expected = SerialValues(serial.get(), queries_);

    auto estimator = CreateEstimator(name, graph_, options_);
    ServeOptions serve_options;
    serve_options.threads = 2;
    serve_options.max_batch_size = 4;
    serve_options.max_linger_seconds = 0.0;
    const ServedWorkloadResult served =
        Serve(estimator.get(), trace_, serve_options);
    ExpectServedMatchesSerial(served, trace_, expected, name);
  }
}

TEST_F(ServeDeterminismTest, SchedulerConfigurationInvariance) {
  // The tentpole's acceptance matrix: {1, 2, 8} scheduler threads ×
  // micro-batch boundaries from one-query-per-dispatch to everything
  // coalesced, on one sharing SpMV method and one sharing walk method.
  for (const std::string& name : {std::string("GEER"), std::string("TP")}) {
    auto serial = CreateEstimator(name, graph_, options_);
    const std::vector<double> expected = SerialValues(serial.get(), queries_);
    for (const int threads : {1, 2, 8}) {
      for (const std::size_t batch_size : {1u, 3u, 64u}) {
        auto estimator = CreateEstimator(name, graph_, options_);
        ServeOptions serve_options;
        serve_options.threads = threads;
        serve_options.max_batch_size = batch_size;
        serve_options.max_linger_seconds = 0.0;
        const ServedWorkloadResult served =
            Serve(estimator.get(), trace_, serve_options);
        ExpectServedMatchesSerial(
            served, trace_, expected,
            name + " threads=" + std::to_string(threads) +
                " batch=" + std::to_string(batch_size));
      }
    }
  }
}

TEST_F(ServeDeterminismTest, ShuffledArrivalOrderDoesNotMoveAnswers) {
  auto serial = CreateEstimator("GEER", graph_, options_);
  const std::vector<double> expected = SerialValues(serial.get(), queries_);
  for (const std::uint64_t shuffle_seed : {1ull, 2ull, 3ull}) {
    const std::vector<TraceEvent> shuffled =
        ShuffleTracePayloads(trace_, shuffle_seed);
    // Map each shuffled event back to its serial answer by payload: the
    // trace has one duplicate pair, whose answers are identical anyway.
    std::vector<double> shuffled_expected(shuffled.size());
    for (std::size_t i = 0; i < shuffled.size(); ++i) {
      double value = std::numeric_limits<double>::quiet_NaN();
      for (std::size_t j = 0; j < queries_.size(); ++j) {
        if (queries_[j].s == shuffled[i].query.s &&
            queries_[j].t == shuffled[i].query.t) {
          value = expected[j];
          break;
        }
      }
      shuffled_expected[i] = value;
    }
    auto estimator = CreateEstimator("GEER", graph_, options_);
    ServeOptions serve_options;
    serve_options.threads = 2;
    serve_options.max_batch_size = 4;
    serve_options.max_linger_seconds = 0.0;
    const ServedWorkloadResult served =
        Serve(estimator.get(), shuffled, serve_options);
    ExpectServedMatchesSerial(served, shuffled, shuffled_expected,
                              "shuffle seed " +
                                  std::to_string(shuffle_seed));
  }
}

TEST_F(ServeDeterminismTest, ConcurrentClientsGetSerialAnswers) {
  auto serial = CreateEstimator("GEER", graph_, options_);
  const std::vector<double> expected = SerialValues(serial.get(), queries_);

  auto estimator = CreateEstimator("GEER", graph_, options_);
  ServeOptions serve_options;
  serve_options.threads = 2;
  serve_options.max_batch_size = 4;
  serve_options.max_linger_seconds = 0.0;
  QueryService service(*estimator, serve_options);

  // 4 client threads hammer Submit concurrently, each owning a strided
  // slice of the query set. Whatever interleaving the scheduler sees,
  // every future must resolve to the serial answer.
  constexpr std::size_t kClients = 4;
  std::vector<std::vector<std::pair<std::size_t,
                                    std::future<QueryResult>>>>
      per_client(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      for (std::size_t i = c; i < queries_.size(); i += kClients) {
        per_client[c].emplace_back(i, service.Submit(queries_[i]));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  service.Flush();
  for (auto& client : per_client) {
    for (auto& [i, future] : client) {
      const QueryResult result = future.get();
      if (std::isnan(expected[i])) {
        EXPECT_EQ(result.status, ServeStatus::kUnsupported) << "query " << i;
      } else {
        EXPECT_EQ(result.status, ServeStatus::kAnswered) << "query " << i;
        EXPECT_EQ(result.stats.value, expected[i]) << "query " << i;
      }
    }
  }
  service.Shutdown();
  const ServeMetrics metrics = service.Metrics();
  EXPECT_EQ(metrics.submitted, queries_.size());
  EXPECT_EQ(metrics.answered + metrics.unsupported, queries_.size());
}

TEST_F(ServeDeterminismTest, SessionCachePersistsAcrossBatchesSameValues) {
  // Two engine runs on one session-enabled estimator: the second visit
  // to the same sources must reuse the retained iterate caches (strictly
  // less fresh SpMV work) while answering bit-identically. The
  // slow-mixing dense fixture guarantees GEER a non-empty SMM phase
  // (there is nothing to retain when ℓ_b = 0 — same reasoning as the
  // batch suite's strict-work test).
  const Graph dense = testing::DenseTestGraph(20);
  ErOptions dense_options = TestOptions();
  dense_options.lambda = ComputeSpectralBounds(dense).lambda;
  const std::vector<QueryPair> dense_queries = TestQueries(dense);
  for (const std::string& name : {std::string("SMM"), std::string("GEER")}) {
    auto serial = CreateEstimator(name, dense, dense_options);
    const std::vector<double> expected =
        SerialValues(serial.get(), dense_queries);

    auto estimator = CreateEstimator(name, dense, dense_options);
    estimator->EnableSessionCache();
    std::vector<QueryStats> first(dense_queries.size());
    std::vector<QueryStats> second(dense_queries.size());
    RunQueryBatch(*estimator, dense_queries, first);
    EXPECT_GT(estimator->SessionCacheStats().misses, 0u) << name;
    RunQueryBatch(*estimator, dense_queries, second);
    std::uint64_t first_spmv = 0;
    std::uint64_t second_spmv = 0;
    for (std::size_t i = 0; i < dense_queries.size(); ++i) {
      if (!std::isnan(expected[i])) {
        EXPECT_EQ(first[i].value, expected[i]) << name << " run 1 #" << i;
        EXPECT_EQ(second[i].value, expected[i]) << name << " run 2 #" << i;
      }
      first_spmv += first[i].spmv_ops;
      second_spmv += second[i].spmv_ops;
    }
    EXPECT_LT(second_spmv, first_spmv) << name;

    // Clearing drops the retained state but keeps the session enabled:
    // cost resets, values do not.
    estimator->ClearSessionCache();
    std::vector<QueryStats> third(dense_queries.size());
    RunQueryBatch(*estimator, dense_queries, third);
    std::uint64_t third_spmv = 0;
    for (std::size_t i = 0; i < dense_queries.size(); ++i) {
      if (!std::isnan(expected[i])) {
        EXPECT_EQ(third[i].value, expected[i]) << name << " run 3 #" << i;
      }
      third_spmv += third[i].spmv_ops;
    }
    EXPECT_EQ(third_spmv, first_spmv) << name;
  }
}

TEST_F(ServeDeterminismTest, WalkSessionCachesPersistAcrossBatches) {
  // TP/TPC retain their per-source walk populations across micro-batches
  // (TP: endpoint histograms per length; TPC: per-length endpoint
  // snapshots). The second visit to the same sources and targets must
  // re-simulate strictly fewer walk steps — TP's revisit is entirely
  // lookup-served — while answering bit-identically; clearing resets the
  // cost without moving any value.
  for (const std::string& name : {std::string("TP"), std::string("TPC")}) {
    auto serial = CreateEstimator(name, graph_, options_);
    const std::vector<double> expected = SerialValues(serial.get(), queries_);

    auto estimator = CreateEstimator(name, graph_, options_);
    estimator->EnableSessionCache();
    std::vector<QueryStats> first(queries_.size());
    std::vector<QueryStats> second(queries_.size());
    RunQueryBatch(*estimator, queries_, first);
    EXPECT_GT(estimator->SessionCacheStats().misses, 0u) << name;
    RunQueryBatch(*estimator, queries_, second);
    std::uint64_t first_steps = 0;
    std::uint64_t second_steps = 0;
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      if (!std::isnan(expected[i])) {
        EXPECT_EQ(first[i].value, expected[i]) << name << " run 1 #" << i;
        EXPECT_EQ(second[i].value, expected[i]) << name << " run 2 #" << i;
      }
      first_steps += first[i].walk_steps;
      second_steps += second[i].walk_steps;
    }
    ASSERT_GT(first_steps, 0u) << name;
    EXPECT_LT(second_steps, first_steps) << name;
    if (name == "TP") {
      // Every population the revisit needs is retained: zero fresh walks.
      EXPECT_EQ(second_steps, 0u) << name;
    }

    estimator->ClearSessionCache();
    std::vector<QueryStats> third(queries_.size());
    RunQueryBatch(*estimator, queries_, third);
    std::uint64_t third_steps = 0;
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      if (!std::isnan(expected[i])) {
        EXPECT_EQ(third[i].value, expected[i]) << name << " run 3 #" << i;
      }
      third_steps += third[i].walk_steps;
    }
    EXPECT_EQ(third_steps, first_steps) << name;
  }
}

TEST_F(ServeDeterminismTest, SessionCacheCountersSurfaceInServeMetrics) {
  // The observability half of the cache contract: ServeMetrics (and the
  // ServedWorkloadResult snapshot taken at shutdown) must expose the
  // per-worker LruByteCache counters. One worker keeps the accounting
  // exact: the first replay populates the cache (misses, resident bytes),
  // a second replay over the SAME estimator is fully warm — hits grow,
  // misses do not, and every answer stays bit-identical.
  auto serial = CreateEstimator("TP", graph_, options_);
  const std::vector<double> expected = SerialValues(serial.get(), queries_);

  auto estimator = CreateEstimator("TP", graph_, options_);
  ServeOptions serve_options;
  serve_options.threads = 1;
  serve_options.max_batch_size = 4;
  serve_options.max_linger_seconds = 0.0;
  QueryService service(*estimator, serve_options);

  // The refresh at each dispatch tail publishes `answered` and the cache
  // snapshot in one critical section, so once `answered` reaches a pass's
  // total the session_cache counters cover every batch of that pass.
  const auto run_pass = [&](std::uint64_t answered_target) {
    std::vector<std::future<QueryResult>> futures;
    futures.reserve(queries_.size());
    for (const QueryPair& q : queries_) futures.push_back(service.Submit(q));
    service.Flush();
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const QueryResult result = futures[i].get();
      EXPECT_EQ(result.status, ServeStatus::kAnswered) << "query " << i;
      EXPECT_EQ(result.stats.value, expected[i]) << "query " << i;
    }
    while (service.Metrics().answered < answered_target) {
      std::this_thread::yield();
    }
    return service.Metrics().session_cache;
  };

  const CacheStats cold = run_pass(queries_.size());
  EXPECT_GT(cold.misses, 0u);
  EXPECT_GT(cold.entries, 0u);
  EXPECT_GT(cold.bytes, 0u);
  // The trace revisits source 3 across micro-batches, so even the cold
  // pass sees intra-run hits.
  EXPECT_GT(cold.hits, 0u);
  EXPECT_EQ(cold.pinned, 0u);  // no landmarks configured

  // Warm replay of the identical queries: every population is retained,
  // so hits grow and NOT ONE fresh miss occurs; resident state is stable.
  const CacheStats warm = run_pass(2 * queries_.size());
  EXPECT_GT(warm.hits, cold.hits);
  EXPECT_EQ(warm.misses, cold.misses);
  EXPECT_EQ(warm.bytes, cold.bytes);
  EXPECT_EQ(warm.entries, cold.entries);
  service.Shutdown();
}

TEST_F(ServeDeterminismTest, LandmarkModeServesBitIdenticalWithPinnedEntries) {
  // ServeOptions.landmarks warms and pins per-landmark state in every
  // worker before the scheduler starts. The contract: answers never move
  // (landmark combination is exact by linearity for the SpMV methods and
  // reuses the very populations the direct path would record for the walk
  // methods), and the pinned warm-up is visible in the metrics snapshot.
  const std::vector<NodeId> landmarks = SelectLandmarks(graph_, 8);
  ASSERT_EQ(landmarks.size(), 8u);
  for (const std::string name : {"GEER", "TP", "SMM"}) {
    auto serial = CreateEstimator(name, graph_, options_);
    const std::vector<double> expected = SerialValues(serial.get(), queries_);

    auto estimator = CreateEstimator(name, graph_, options_);
    ServeOptions serve_options;
    serve_options.threads = 2;
    serve_options.max_batch_size = 4;
    serve_options.max_linger_seconds = 0.0;
    serve_options.landmarks = landmarks;
    const ServedWorkloadResult served =
        Serve(estimator.get(), trace_, serve_options);
    ExpectServedMatchesSerial(served, trace_, expected, name + " landmarks");
    // Both workers warmed all 8 landmarks; the warm-up itself counts as
    // misses, and the pinned gauge proves the entries are budget-exempt.
    EXPECT_GE(served.session_cache.pinned, landmarks.size()) << name;
    EXPECT_GT(served.session_cache.misses, 0u) << name;
    EXPECT_GT(served.session_cache.bytes, 0u) << name;
  }
}

TEST_F(ServeDeterminismTest, TinyDeadlineExpiresQueriesWithoutHanging) {
  auto estimator = CreateEstimator("GEER", graph_, options_);
  ServeOptions serve_options;
  serve_options.threads = 1;
  serve_options.max_batch_size = 1;  // one dispatch per query: real queueing
  serve_options.max_linger_seconds = 0.0;
  const ServedWorkloadResult served = RunServedWorkload(
      *estimator, trace_, serve_options, /*deadline_seconds=*/1e-9,
      /*realtime=*/false);
  // Every future resolved; with a 1 ns budget nothing queued survives to
  // dispatch un-expired, but an answer that squeaked through is legal
  // (the engine's ≥ 1-query rule) — what's illegal is hanging or losing
  // a query.
  std::size_t resolved = 0;
  for (const ServeStatus status : served.statuses) {
    EXPECT_TRUE(status == ServeStatus::kExpired ||
                status == ServeStatus::kAnswered);
    ++resolved;
  }
  EXPECT_EQ(resolved, trace_.size());
  EXPECT_GT(served.expired, 0u);
}

TEST_F(ServeDeterminismTest, ZeroCapacityQueueRejectsEverySubmission) {
  auto estimator = CreateEstimator("GEER", graph_, options_);
  ServeOptions serve_options;
  serve_options.max_queue = 0;
  QueryService service(*estimator, serve_options);
  auto future = service.Submit({3, 1});
  EXPECT_EQ(future.get().status, ServeStatus::kRejected);
  service.Shutdown();
  EXPECT_EQ(service.Metrics().rejected, 1u);
}

TEST_F(ServeDeterminismTest, ShutdownNowCancelsQueuedWork) {
  auto estimator = CreateEstimator("GEER", graph_, options_);
  ServeOptions serve_options;
  serve_options.threads = 1;
  serve_options.max_batch_size = 1;
  serve_options.max_linger_seconds = 0.0;
  QueryService service(*estimator, serve_options);
  std::vector<std::future<QueryResult>> futures;
  for (int rep = 0; rep < 20; ++rep) {
    for (const QueryPair& q : queries_) futures.push_back(service.Submit(q));
  }
  service.ShutdownNow();
  std::size_t cancelled = 0;
  for (auto& future : futures) {
    const QueryResult result = future.get();  // must all resolve
    EXPECT_TRUE(result.status == ServeStatus::kAnswered ||
                result.status == ServeStatus::kUnsupported ||
                result.status == ServeStatus::kCancelled);
    if (result.status == ServeStatus::kCancelled) ++cancelled;
  }
  // Submissions after shutdown resolve immediately as kShutdown.
  EXPECT_EQ(service.Submit({3, 1}).get().status, ServeStatus::kShutdown);
  EXPECT_EQ(service.Metrics().cancelled, cancelled);
}

}  // namespace
}  // namespace geer
