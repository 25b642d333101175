// The networked bit-identity contract, end to end: a router over two
// in-process shard servers (full replicas, loopback ephemeral ports)
// answers a shuffled Zipf trace BIT-IDENTICALLY to the in-process
// QueryService built from the same graph, seed and options — including
// across a router-coordinated epoch swap (non-incremental ApplyUpdates
// broadcast to every shard, each deriving the same λ deterministically
// exactly as net/shard_service.cc does). Also pins the epoch stamps a
// client observes (0 before the swap, the committed epoch after), the
// aggregate HelloAck, the ok=false ack for an invalid update stream
// (with the cluster still serving the old epoch afterwards), the
// kFailed outcome for an out-of-range query, and the fail-fast Hello
// verification when replicas disagree. Runs under ThreadSanitizer in CI
// (router fan-out + shard handlers + submitter senders all exercise the
// swap barrier concurrently).

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/registry.h"
#include "dyn/dyn_serve.h"
#include "dyn/dynamic_graph.h"
#include "eval/arrival_trace.h"
#include "eval/datasets.h"
#include "linalg/spectral.h"
#include "net/codec.h"
#include "net/router.h"
#include "net/shard_service.h"
#include "net/submitter.h"
#include "serve/query_service.h"
#include "test_util.h"

namespace geer::net {
namespace {

constexpr std::uint64_t kSeed = 20260809;

ErOptions TestErOptions() {
  ErOptions opt;
  opt.epsilon = 0.5;
  opt.delta = 0.1;
  opt.seed = kSeed;
  opt.tp_scale = 0.01;  // scaled constants keep the suite fast
  return opt;
}

ServeOptions TestServeOptions() {
  ServeOptions opt;
  opt.threads = 2;
  opt.max_batch_size = 8;
  opt.max_linger_seconds = 0.0;
  return opt;
}

/// The shuffled Zipf query order both transports replay.
std::vector<QueryPair> TestQueries(NodeId n, std::size_t count) {
  std::vector<NodeId> ranking(n);
  std::iota(ranking.begin(), ranking.end(), NodeId{0});
  const auto queries = MakeZipfQueries(ranking, count, 0.8, kSeed);
  const auto trace = ShuffleTracePayloads(
      MakeOpenLoopTrace(queries, /*qps=*/0.0, kSeed), kSeed + 1);
  std::vector<QueryPair> shuffled;
  shuffled.reserve(trace.size());
  for (const TraceEvent& event : trace) shuffled.push_back(event.query);
  return shuffled;
}

std::vector<QueryResult> SubmitAll(QuerySubmitter& submitter,
                                   std::span<const QueryPair> queries) {
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(queries.size());
  for (const QueryPair& q : queries) futures.push_back(submitter.Submit(q));
  submitter.Flush();
  std::vector<QueryResult> results;
  results.reserve(queries.size());
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

/// The in-process truth, built EXACTLY the way a shard server builds its
/// replica (net/shard_service.cc): λ derived cold via
/// ComputeSpectralBoundsT on the served snapshot when the method reads
/// it, estimator from the registry, epoch swaps through ApplyEpochUpdate
/// with a freshly derived λ. Any divergence here is a divergence in the
/// contract itself.
class InProcessTruth {
 public:
  explicit InProcessTruth(Graph graph) : dyn_(std::move(graph)) {
    snapshot_ = dyn_.Current();
    reads_lambda_ = EstimatorReadsLambda("GEER");
    ErOptions build = TestErOptions();
    if (reads_lambda_ && !build.lambda.has_value()) {
      build.lambda =
          ComputeSpectralBoundsT<UnitWeight>(*snapshot_->graph).lambda;
    }
    estimator_ = CreateEstimator("GEER", *snapshot_->graph, build);
    service_ = std::make_unique<QueryService>(*estimator_, TestServeOptions());
  }

  DynamicGraph& dyn() { return dyn_; }
  QueryService& service() { return *service_; }

  /// Mirrors ShardServer::HandleApplyUpdates for the non-incremental
  /// path: apply + commit + cold λ + barrier swap.
  bool ApplyAndSwap(const std::vector<EdgeUpdate>& updates) {
    for (const EdgeUpdate& op : updates) dyn_.Apply(op);
    auto snapshot = dyn_.Commit();
    std::optional<double> lambda;
    if (reads_lambda_) {
      lambda = ComputeSpectralBoundsT<UnitWeight>(*snapshot->graph).lambda;
    }
    const bool ok = ApplyEpochUpdate<UnitWeight>(*service_, snapshot, lambda,
                                                 /*incremental=*/false,
                                                 nullptr)
                        .get();
    if (ok) snapshot_ = snapshot;
    return ok;
  }

 private:
  DynamicGraph dyn_;
  std::shared_ptr<const DynSnapshot> snapshot_;
  bool reads_lambda_ = false;
  std::unique_ptr<ErEstimator> estimator_;
  std::unique_ptr<QueryService> service_;
};

/// A 2-shard deployment on loopback: two full-replica shard servers and
/// a router, all in-process, all on ephemeral ports.
class Cluster {
 public:
  explicit Cluster(const Graph& graph) {
    ShardOptions shard;
    shard.num_shards = 2;
    shard.er = TestErOptions();
    shard.serve = TestServeOptions();
    for (int i = 0; i < 2; ++i) {
      shard.shard_id = i;
      shards_.push_back(std::make_unique<ShardServer>(graph, shard));
      std::string error;
      EXPECT_TRUE(shards_.back()->Start(&error)) << error;
    }
    RouterOptions opt;
    opt.strategy = PartitionStrategy::kRange;
    opt.connections_per_shard = 2;
    router_ = std::make_unique<Router>(
        std::vector<ShardAddress>{{"127.0.0.1", shards_[0]->port()},
                                  {"127.0.0.1", shards_[1]->port()}},
        opt);
    std::string error;
    EXPECT_TRUE(router_->Start(&error)) << error;
  }

  ~Cluster() {
    router_->Stop();
    router_->Wait();
    for (auto& shard : shards_) {
      shard->Stop();
      shard->Wait();
    }
  }

  std::uint16_t router_port() const { return router_->port(); }

 private:
  std::vector<std::unique_ptr<ShardServer>> shards_;
  std::unique_ptr<Router> router_;
};

TEST(NetDeterminismTest, ClusterMatchesInProcessServiceBitwiseAcrossSwap) {
  auto dataset = MakeDataset("facebook", 0.05);
  ASSERT_TRUE(dataset.has_value());
  const NodeId n = dataset->graph.NumNodes();
  const auto queries = TestQueries(n, 48);

  InProcessTruth truth(dataset->graph);
  // One update batch, generated once and shipped to BOTH transports.
  UpdateGenerator generator(truth.dyn(), kSeed);
  const std::vector<EdgeUpdate> batch = generator.NextBatch(12);

  const auto truth_before = SubmitAll(truth.service(), queries);
  ASSERT_TRUE(truth.ApplyAndSwap(batch));
  const auto truth_after = SubmitAll(truth.service(), queries);

  Cluster cluster(dataset->graph);
  NetSubmitter submitter("127.0.0.1", cluster.router_port(), 3);
  std::string error;
  ASSERT_TRUE(submitter.Connect(&error)) << error;

  // Aggregate HelloAck: the router reports the deployment, not a shard.
  EXPECT_EQ(submitter.info().num_nodes, n);
  EXPECT_EQ(submitter.info().num_edges, dataset->graph.NumEdges());
  EXPECT_EQ(submitter.info().epoch, 0u);
  EXPECT_EQ(submitter.info().num_shards, 2u);

  const auto net_before = SubmitAll(submitter, queries);
  ASSERT_EQ(net_before.size(), truth_before.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(net_before[i].status, ServeStatus::kAnswered)
        << "query " << i << " (" << queries[i].s << "," << queries[i].t << ")";
    ASSERT_EQ(truth_before[i].status, ServeStatus::kAnswered);
    // THE contract: the networked answer is the in-process answer, to
    // the last bit, whatever replica and micro-batch it rode through.
    EXPECT_EQ(net_before[i].stats.value, truth_before[i].stats.value)
        << "query " << i << " diverged over the wire (epoch 0)";
    EXPECT_EQ(net_before[i].epoch, 0u);
  }

  // Router-coordinated swap: broadcast, all-acks, new epoch everywhere.
  ApplyUpdatesMsg msg;
  msg.updates = batch;
  ApplyUpdatesAckMsg ack;
  ASSERT_TRUE(submitter.ApplyUpdates(msg, &ack, &error)) << error;
  EXPECT_TRUE(ack.ok);
  EXPECT_EQ(ack.epoch, 1u);

  const auto net_after = SubmitAll(submitter, queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(net_after[i].status, ServeStatus::kAnswered) << "query " << i;
    ASSERT_EQ(truth_after[i].status, ServeStatus::kAnswered);
    EXPECT_EQ(net_after[i].stats.value, truth_after[i].stats.value)
        << "query " << i << " diverged over the wire (epoch 1)";
    EXPECT_EQ(net_after[i].epoch, 1u);
  }

  // Out-of-range endpoints come back as a serving outcome, not a hang or
  // a dead connection: the router replies kError(kOutOfRange), the
  // submitter resolves kFailed, and the next query still works.
  QueryResult bad = submitter.Submit({n, 0}).get();
  EXPECT_EQ(bad.status, ServeStatus::kFailed);
  QueryResult good = submitter.Submit(queries[0]).get();
  EXPECT_EQ(good.status, ServeStatus::kAnswered);
  EXPECT_EQ(good.stats.value, truth_after[0].stats.value);

  submitter.Close();
}

TEST(NetDeterminismTest, InvalidUpdateStreamAcksFalseAndKeepsServing) {
  const Graph graph = geer::testing::DenseTestGraph(24);
  const NodeId n = graph.NumNodes();
  const auto queries = TestQueries(n, 12);

  InProcessTruth truth(graph);
  const auto want = SubmitAll(truth.service(), queries);

  Cluster cluster(graph);
  NetSubmitter submitter("127.0.0.1", cluster.router_port(), 2);
  std::string error;
  ASSERT_TRUE(submitter.Connect(&error)) << error;

  // Deleting an absent edge is a contract violation: the shard must
  // pre-validate and ack ok=false — never abort, never half-apply.
  ApplyUpdatesMsg msg;
  msg.updates = {{EdgeUpdateKind::kDelete, 0, 13, 1.0}};
  ASSERT_FALSE(graph.HasEdge(0, 13));
  ApplyUpdatesAckMsg ack;
  ASSERT_TRUE(submitter.ApplyUpdates(msg, &ack, &error)) << error;
  EXPECT_FALSE(ack.ok);
  EXPECT_EQ(ack.epoch, 0u);

  // The cluster still serves epoch 0, bit-identical to the truth.
  const auto got = SubmitAll(submitter, queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(got[i].status, ServeStatus::kAnswered) << "query " << i;
    EXPECT_EQ(got[i].stats.value, want[i].stats.value) << "query " << i;
    EXPECT_EQ(got[i].epoch, 0u);
  }
  submitter.Close();
}

TEST(NetDeterminismTest, RouterRejectsDisagreeingReplicas) {
  // A mis-deployed cluster (shards serving different graphs) must fail
  // the Hello verification at Start, not answer garbage later.
  ShardOptions opt;
  opt.num_shards = 2;
  opt.er = TestErOptions();
  opt.serve = TestServeOptions();
  ShardServer small(geer::testing::DenseTestGraph(16), opt);
  ShardServer large(geer::testing::DenseTestGraph(24), opt);
  std::string error;
  ASSERT_TRUE(small.Start(&error)) << error;
  ASSERT_TRUE(large.Start(&error)) << error;

  Router router({{"127.0.0.1", small.port()}, {"127.0.0.1", large.port()}},
                RouterOptions{});
  error.clear();
  EXPECT_FALSE(router.Start(&error));
  EXPECT_FALSE(error.empty());

  small.Stop();
  small.Wait();
  large.Stop();
  large.Wait();
}

}  // namespace
}  // namespace geer::net
