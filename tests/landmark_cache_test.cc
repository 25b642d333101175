// The landmark/hub layer's contract suite: landmark SELECTION is a pure
// deterministic function of the graph with ties broken by node id;
// starting a session with landmarks builds nothing, and the first query
// that touches a landmark builds its state and pins it through an LRU
// flood (GEER's pinned stream holds only the iterates that query read);
// EXACT/CG answers combined from cached landmark columns are
// BIT-IDENTICAL to direct solves (linearity — rank-one centering parts
// cancel in the 4-term combination); walk/iterate methods (TP/TPC/SMM/
// GEER) with pinned landmarks answer bit-identically to instances
// without a session and stay within the contract-test accuracy budget
// against the CG oracle in both weight modes; the cache hit/miss
// counters are EXACT on a scripted trace; and an epoch swap (dyn
// RebindGraph) invalidates landmark state such that rebound answers,
// with the landmarks rebuilt and re-pinned, equal a fresh estimator's
// bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <ostream>
#include <vector>

#include "centrality/landmarks.h"
#include "core/batch_engine.h"
#include "core/exact.h"
#include "core/geer.h"
#include "core/node_state_cache.h"
#include "core/registry.h"
#include "core/solver_er.h"
#include "dyn/dynamic_graph.h"
#include "graph/generators.h"
#include "graph/weighted_generators.h"
#include "linalg/spectral.h"
#include "rw/rng.h"
#include "geer_pendant_checks.h"
#include "test_util.h"

namespace geer {
namespace {

ErOptions FastOptions() {
  ErOptions opt;
  opt.epsilon = 0.3;
  opt.delta = 0.05;
  opt.seed = 2024;
  opt.tp_scale = 0.01;   // same scaled constants as the contract suite:
  opt.tpc_scale = 0.001;  // its accuracy budget is known to hold here
  opt.mc_gamma_upper = 8.0;
  return opt;
}

// The fast-mixing dense fixture of the contract suite, so "within
// contract-test error bounds" means literally the same budget there.
Graph Fixture() { return gen::ErdosRenyi(40, 400, 9); }

TEST(LandmarkSelectionTest, DegreeSelectionDeterministicTieBreakById) {
  const Graph graph = Fixture();
  const std::vector<NodeId> a = SelectLandmarks(graph, 8);
  const std::vector<NodeId> b = SelectLandmarks(graph, 8);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 8u);

  // Ground truth: node ids sorted by (degree desc, id asc).
  std::vector<NodeId> ranked(graph.NumNodes());
  std::iota(ranked.begin(), ranked.end(), NodeId{0});
  std::stable_sort(ranked.begin(), ranked.end(), [&](NodeId x, NodeId y) {
    if (graph.Degree(x) != graph.Degree(y)) {
      return graph.Degree(x) > graph.Degree(y);
    }
    return x < y;
  });
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], ranked[i]) << "rank " << i;
  }
  // count >= n is the full popularity ranking.
  const std::vector<NodeId> all = SelectLandmarks(graph, graph.NumNodes() + 5);
  EXPECT_EQ(all, ranked);
}

TEST(LandmarkSelectionTest, WeightedSelectionRanksByStrength) {
  const WeightedGraph graph =
      gen::WithUniformWeights(Fixture(), 0.5, 2.0, 99);
  const std::vector<NodeId> a = SelectLandmarks(graph, 6);
  EXPECT_EQ(a, SelectLandmarks(graph, 6));
  std::vector<NodeId> ranked(graph.NumNodes());
  std::iota(ranked.begin(), ranked.end(), NodeId{0});
  std::stable_sort(ranked.begin(), ranked.end(), [&](NodeId x, NodeId y) {
    if (graph.Strength(x) != graph.Strength(y)) {
      return graph.Strength(x) > graph.Strength(y);
    }
    return x < y;
  });
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], ranked[i]) << "rank " << i;
  }
}

// Query pairs mixing landmark-landmark, landmark-other (both endpoint
// positions), other-other, s > t, and s == t.
std::vector<QueryPair> MixedQueries(std::span<const NodeId> landmarks) {
  const NodeId a = landmarks[0];
  const NodeId b = landmarks[1];
  return {{a, b}, {b, a}, {a, 17}, {17, a}, {23, b},
          {14, 29}, {29, 14}, {a, a}, {2, 35}};
}

// Values of `queries` answered by one RunQueryBatch call on one worker:
// the session path of every estimator (SMM/GEER read their session only
// through EstimateBatch).
std::vector<double> BatchValues(ErEstimator& estimator,
                                std::span<const QueryPair> queries) {
  std::vector<QueryStats> stats(queries.size());
  RunQueryBatch(estimator, queries, stats);
  std::vector<double> values(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) values[i] = stats[i].value;
  return values;
}

const char* const kSessionEstimators[] = {"EXACT", "CG",  "TP",
                                          "TPC",   "SMM", "GEER"};

TEST(LandmarkCacheTest, EnableSessionCacheBuildsNothing) {
  const Graph graph = Fixture();
  const std::vector<NodeId> landmarks = SelectLandmarks(graph, 6);
  for (const std::string name : kSessionEstimators) {
    auto estimator = CreateEstimator(name, graph, FastOptions());
    ASSERT_NE(estimator, nullptr) << name;
    estimator->EnableSessionCache(2048, landmarks);
    const CacheStats stats = estimator->SessionCacheStats();
    EXPECT_EQ(stats.entries, 0u) << name;
    EXPECT_EQ(stats.pinned, 0u) << name;
    EXPECT_EQ(stats.bytes, 0u) << name;
    EXPECT_EQ(stats.misses, 0u) << name;
  }
}

// The first query that touches a landmark builds its state and pins it;
// an LRU flood of non-landmark entries under a budget far below the
// flood's bytes evicts around it, and the repeat query reads it back
// without fresh work. Budgets as in the scripted trace below.
TEST(LandmarkCacheTest, FirstQueryPinsLandmarkThroughLruFlood) {
  struct Case {
    const char* name;
    std::size_t budget_bytes;
    std::uint64_t keys_per_node;  // TPC keys a node's A and B sides
  };
  const Case cases[] = {{"SMM", 2048, 1},  {"GEER", 2048, 1},
                        {"TP", 8192, 1},   {"TPC", 98304, 2},
                        {"EXACT", 2048, 1}, {"CG", 2048, 1}};
  const Graph graph = gen::ErdosRenyi(30, 140, 7);
  const std::vector<NodeId> landmarks = SelectLandmarks(graph, 2);
  const std::vector<QueryPair> hub = {{landmarks[0], landmarks[1]}};
  // Every pair of ten non-landmark nodes: each recurs in the batch, so
  // SMM/GEER admit its stream too.
  std::vector<NodeId> others;
  for (NodeId v = 0; others.size() < 10; ++v) {
    if (v != landmarks[0] && v != landmarks[1]) others.push_back(v);
  }
  std::vector<QueryPair> flood;
  for (std::size_t i = 0; i < others.size(); ++i) {
    for (std::size_t j = i + 1; j < others.size(); ++j) {
      flood.push_back({others[i], others[j]});
    }
  }
  const ErOptions options = FastOptions();
  for (const Case& c : cases) {
    auto plain = CreateEstimator(c.name, graph, options);
    auto estimator = CreateEstimator(c.name, graph, options);
    ASSERT_NE(estimator, nullptr) << c.name;
    estimator->EnableSessionCache(c.budget_bytes, landmarks);
    const double expected = plain->Estimate(hub[0].s, hub[0].t);

    std::vector<QueryStats> first(1);
    RunQueryBatch(*estimator, hub, first);
    EXPECT_EQ(first[0].value, expected) << c.name;
    const CacheStats built = estimator->SessionCacheStats();
    EXPECT_EQ(built.pinned, 2 * c.keys_per_node) << c.name;
    EXPECT_EQ(built.entries, 2 * c.keys_per_node) << c.name;
    EXPECT_GT(first[0].spmv_ops + first[0].solves + first[0].walk_steps, 0u)
        << c.name;

    std::vector<QueryStats> flood_stats(flood.size());
    RunQueryBatch(*estimator, flood, flood_stats);
    const CacheStats flooded = estimator->SessionCacheStats();
    EXPECT_GT(flooded.evictions, built.evictions) << c.name;
    EXPECT_EQ(flooded.pinned, built.pinned) << c.name;

    std::vector<QueryStats> repeat(1);
    RunQueryBatch(*estimator, hub, repeat);
    EXPECT_EQ(repeat[0].value, expected) << c.name;
    EXPECT_EQ(repeat[0].spmv_ops, 0u) << c.name;
    EXPECT_EQ(repeat[0].solves, 0u) << c.name;
    // GEER's AMC walks are per query; the walk methods' populations are
    // the session state.
    if (std::string(c.name) == "TP" || std::string(c.name) == "TPC") {
      EXPECT_EQ(repeat[0].walks, 0u) << c.name;
      EXPECT_EQ(repeat[0].walk_steps, 0u) << c.name;
    }
    const CacheStats after = estimator->SessionCacheStats();
    EXPECT_EQ(after.misses, flooded.misses) << c.name;
    EXPECT_EQ(after.pinned, built.pinned) << c.name;
  }
}

// GEER reads a stream only up to its greedy switch point ℓ_b (Eq. 17),
// so a landmark's pinned stream holds exactly the ℓ_b + 1 dense iterates
// (P^0 … P^ℓ_b applied to e_lm) the first query read, not Peng's ℓ.
TEST(LandmarkCacheTest, GeerPinsOnlyTheIteratesItsQueryRead) {
  const Graph graph = testing::DenseTestGraph(20);
  ErOptions options = FastOptions();
  options.epsilon = 0.05;
  options.lambda = ComputeSpectralBounds(graph).lambda;
  const NodeId lm = SelectLandmarks(graph, 1)[0];
  const NodeId other = lm == 15 ? 16 : 15;  // a ring node, batch singleton
  const std::vector<QueryPair> queries = {{lm, other}};
  auto estimator = CreateEstimator("GEER", graph, options);
  estimator->EnableSessionCache(0, std::span<const NodeId>(&lm, 1));
  std::vector<QueryStats> stats(1);
  RunQueryBatch(*estimator, queries, stats);
  ASSERT_GT(stats[0].ell_b, 0u);
  ASSERT_LT(stats[0].ell_b, stats[0].ell);
  const CacheStats cache = estimator->SessionCacheStats();
  EXPECT_EQ(cache.entries, 1u);
  EXPECT_EQ(cache.pinned, 1u);
  EXPECT_EQ(cache.bytes, (std::uint64_t{stats[0].ell_b} + 1) *
                             graph.NumNodes() * sizeof(double));
}

// GEER walks the 2-core graph C, so its session is keyed by C's ids: a
// landmark in a pendant tree pins its root's stream on C, which holds
// ℓ_b + 1 iterates of n_C entries. The fixture interleaves core and tree
// ids (core nodes keep G ids up to 22, n_C = 16), and the session's
// NodeStateCache checks that every key is below n_C, so a G id leaking
// into it would abort the test.
TEST(LandmarkCacheTest, GeerTreeLandmarkPinsItsRootOnTheCore) {
  const Graph graph = testing::ShuffledGraphWithTrees();
  ErOptions options = FastOptions();
  options.epsilon = 0.05;
  options.lambda = ComputeSpectralBounds(graph).lambda;
  const NodeId tree_lm = 20;
  const NodeId root = 21;
  GeerEstimator by_tree(graph, options);
  ASSERT_NE(by_tree.core(), nullptr);
  const NodeId n_c = by_tree.core()->graph().NumNodes();
  ASSERT_EQ(n_c, 16u);
  ASSERT_EQ(by_tree.core()->forest().Root(tree_lm), root);
  by_tree.EnableSessionCache(0, std::span<const NodeId>(&tree_lm, 1));
  const std::vector<QueryPair> first = {{tree_lm, 4}};
  std::vector<QueryStats> stats(1);
  RunQueryBatch(by_tree, first, stats);
  ASSERT_GT(stats[0].ell_b, 0u);
  const CacheStats cache = by_tree.SessionCacheStats();
  EXPECT_EQ(cache.entries, 1u);
  EXPECT_EQ(cache.pinned, 1u);
  EXPECT_EQ(cache.bytes,
            (std::uint64_t{stats[0].ell_b} + 1) * n_c * sizeof(double));

  // The same session as one whose landmark is the root itself, and the
  // same answers as no session at all. The queries pair tree nodes of
  // different trees, core nodes with G ids ≥ n_C, and the root.
  GeerEstimator by_root(graph, options);
  by_root.EnableSessionCache(0, std::span<const NodeId>(&root, 1));
  GeerEstimator plain(graph, options);
  const std::vector<QueryPair> queries = {
      {tree_lm, 4}, {22, 18}, {16, root}, {13, 23}, {root, 22},
      {6, 20},      {18, 7},  {tree_lm, 18}};
  const std::vector<double> tree_values = BatchValues(by_tree, queries);
  BatchValues(by_root, first);
  const std::vector<double> root_values = BatchValues(by_root, queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const double expected = plain.Estimate(queries[i].s, queries[i].t);
    EXPECT_EQ(testing::BitsOf(tree_values[i]), testing::BitsOf(expected))
        << "(" << queries[i].s << "," << queries[i].t << ")";
    EXPECT_EQ(testing::BitsOf(root_values[i]), testing::BitsOf(expected))
        << "(" << queries[i].s << "," << queries[i].t << ")";
  }
  const CacheStats tree_cache = by_tree.SessionCacheStats();
  const CacheStats root_cache = by_root.SessionCacheStats();
  EXPECT_EQ(tree_cache.pinned, 1u);
  EXPECT_EQ(tree_cache.pinned, root_cache.pinned);
  EXPECT_EQ(tree_cache.entries, root_cache.entries);
  EXPECT_EQ(tree_cache.bytes, root_cache.bytes);
  EXPECT_EQ(tree_cache.hits, root_cache.hits);
  EXPECT_EQ(tree_cache.misses, root_cache.misses);
  EXPECT_EQ(tree_cache.bytes % (n_c * sizeof(double)), 0u);
}

#ifndef NDEBUG
struct BytePayload {
  std::size_t ApproxBytes() const { return 8; }
};

TEST(LandmarkCacheTest, NodeStateCacheRejectsKeysPastItsNodeCount) {
  NodeStateCache<NodeId, BytePayload> cache(0, {}, 16);
  EXPECT_NE(cache.GetOrCreate(15, [] { return BytePayload{}; }), nullptr);
  EXPECT_DEATH(cache.Find(16), "16-node cache");
  EXPECT_DEATH(cache.GetOrCreate(20, [] { return BytePayload{}; }),
               "16-node cache");
}
#endif

TEST(LandmarkCacheTest, ExactCombinedFromLandmarkColumnsBitIdentical) {
  const Graph graph = Fixture();
  const std::vector<NodeId> landmarks = SelectLandmarks(graph, 6);
  ExactEstimator direct(graph);  // no session cache at all
  ExactEstimator pinned(graph);
  pinned.EnableSessionCache(0, landmarks);

  const std::vector<QueryPair> queries = MixedQueries(landmarks);
  for (int pass = 0; pass < 2; ++pass) {  // build, then read back
    for (const QueryPair& q : queries) {
      EXPECT_EQ(pinned.Estimate(q.s, q.t), direct.Estimate(q.s, q.t))
          << "EXACT (" << q.s << "," << q.t << ") pass " << pass;
      // Combination from cached columns is bitwise symmetric.
      EXPECT_EQ(pinned.Estimate(q.s, q.t), pinned.Estimate(q.t, q.s))
          << "EXACT symmetric (" << q.s << "," << q.t << ") pass " << pass;
    }
  }
  // Eight distinct endpoints, of which the queries' two landmarks are
  // pinned; every column was solved once.
  const CacheStats after = pinned.SessionCacheStats();
  EXPECT_EQ(after.pinned, 2u);
  EXPECT_EQ(after.entries, 8u);
  EXPECT_EQ(after.misses, 8u);
  EXPECT_EQ(after.evictions, 0u);
  EXPECT_GT(after.bytes, 0u);
}

TEST(LandmarkCacheTest, CgCombinedFromLandmarkColumnsBitIdentical) {
  const Graph graph = Fixture();
  const std::vector<NodeId> landmarks = SelectLandmarks(graph, 6);
  SolverEstimator direct(graph);
  SolverEstimator pinned(graph);
  pinned.EnableSessionCache(0, landmarks);
  for (int pass = 0; pass < 2; ++pass) {
    for (const QueryPair& q : MixedQueries(landmarks)) {
      EXPECT_EQ(pinned.Estimate(q.s, q.t), direct.Estimate(q.s, q.t))
          << "CG (" << q.s << "," << q.t << ") pass " << pass;
      EXPECT_EQ(pinned.Estimate(q.s, q.t), pinned.Estimate(q.t, q.s))
          << "CG symmetric (" << q.s << "," << q.t << ") pass " << pass;
    }
  }
  EXPECT_EQ(pinned.SessionCacheStats().pinned, 2u);
}

TEST(LandmarkCacheTest, PinnedWalkMethodsBitIdenticalToUnpinned) {
  const Graph graph = Fixture();
  ErOptions opt = FastOptions();
  opt.lambda = ComputeSpectralBounds(graph).lambda;
  const std::vector<NodeId> landmarks = SelectLandmarks(graph, 6);
  const std::vector<QueryPair> queries = MixedQueries(landmarks);
  for (const std::string name : {"TP", "TPC", "SMM", "GEER"}) {
    auto plain = CreateEstimator(name, graph, opt);
    auto pinned = CreateEstimator(name, graph, opt);
    ASSERT_NE(plain, nullptr) << name;
    pinned->EnableSessionCache(0, landmarks);
    // The first batch builds and pins the landmark state, the second
    // reads it back; neither moves an answer.
    for (int pass = 0; pass < 2; ++pass) {
      const std::vector<double> values = BatchValues(*pinned, queries);
      for (std::size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(values[i], plain->Estimate(queries[i].s, queries[i].t))
            << name << " (" << queries[i].s << "," << queries[i].t
            << ") pass " << pass;
      }
    }
    EXPECT_GT(pinned->SessionCacheStats().pinned, 0u) << name;
  }
}

TEST(LandmarkCacheTest, PinnedWalkMethodsWithinContractBoundsVsCgOracle) {
  const Graph graph = Fixture();
  ErOptions opt = FastOptions();
  opt.lambda = ComputeSpectralBounds(graph).lambda;
  const std::vector<NodeId> landmarks = SelectLandmarks(graph, 6);
  const std::vector<QueryPair> queries = {
      {landmarks[0], 17}, {23, landmarks[1]}, {14, 29}};
  SolverEstimator oracle(graph);
  for (const std::string name : {"TP", "TPC", "SMM", "GEER"}) {
    auto pinned = CreateEstimator(name, graph, opt);
    ASSERT_NE(pinned, nullptr) << name;
    pinned->EnableSessionCache(0, landmarks);
    BatchValues(*pinned, queries);  // builds and pins the hub side
    const std::vector<double> values = BatchValues(*pinned, queries);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const double truth = oracle.Estimate(queries[i].s, queries[i].t);
      EXPECT_NEAR(values[i], truth, opt.epsilon + 1e-9)
          << name << " (" << queries[i].s << "," << queries[i].t << ")";
    }
  }
}

TEST(LandmarkCacheTest, WeightedPinnedMethodsWithinBoundsVsWeightedCg) {
  const WeightedGraph graph =
      gen::WithUniformWeights(Fixture(), 0.5, 2.0, 99);
  ErOptions opt = FastOptions();
  opt.lambda = ComputeWeightedSpectralBounds(graph).lambda;
  const std::vector<NodeId> landmarks = SelectLandmarks(graph, 6);
  const std::vector<QueryPair> queries = {
      {landmarks[0], 17}, {23, landmarks[1]}, {14, 29}};
  WeightedSolverEstimator oracle(graph);
  for (const std::string name : {"TP", "SMM", "GEER"}) {
    auto plain = CreateWeightedEstimator(name, graph, opt);
    auto pinned = CreateWeightedEstimator(name, graph, opt);
    ASSERT_NE(pinned, nullptr) << name;
    pinned->EnableSessionCache(0, landmarks);
    BatchValues(*pinned, queries);  // builds and pins the hub side
    const std::vector<double> values = BatchValues(*pinned, queries);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const QueryPair& q = queries[i];
      EXPECT_EQ(values[i], plain->Estimate(q.s, q.t))
          << "W-" << name << " (" << q.s << "," << q.t << ")";
      EXPECT_NEAR(values[i], oracle.Estimate(q.s, q.t), opt.epsilon + 1e-9)
          << "W-" << name << " (" << q.s << "," << q.t << ")";
    }
  }
}

// The session cache's counters on one scripted trace, per estimator:
// start a session with two landmarks, run a batch, repeat it, swap the
// epoch, run it again. Every lookup of the six node-keyed caches is
// deterministic, so hits/misses/evictions/entries/pinned are pinned
// EXACTLY at each checkpoint. Starting the session builds nothing; the
// first batch pins the landmarks it touches. The budgets are small
// enough that the LRU evicts, and the post-swap batch exercises the
// re-pin of invalidated landmarks.
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;
  std::uint64_t pinned = 0;

  bool operator==(const CacheCounters&) const = default;
};

CacheCounters CountersOf(const CacheStats& s) {
  return {s.hits, s.misses, s.evictions, s.entries, s.pinned};
}

std::ostream& operator<<(std::ostream& os, const CacheCounters& c) {
  return os << "{" << c.hits << ", " << c.misses << ", " << c.evictions
            << ", " << c.entries << ", " << c.pinned << "}";
}

struct CacheTraceCase {
  const char* name;
  std::size_t budget_bytes;
  // After: session start, batch, repeat batch, epoch swap, post-swap
  // batch.
  CacheCounters expected[5];
};

TEST(LandmarkCacheTest, SessionCacheCountersOnScriptedTrace) {
  const CacheTraceCase cases[] = {
      {"SMM", 2048,
       {{0, 0, 0, 0, 0}, {9, 13, 5, 6, 2}, {20, 24, 14, 6, 2},
        {20, 24, 18, 2, 0}, {29, 37, 25, 6, 2}}},
      {"GEER", 2048,
       {{0, 0, 0, 0, 0}, {9, 13, 5, 6, 2}, {20, 24, 14, 6, 2},
        {20, 24, 18, 2, 0}, {29, 37, 25, 6, 2}}},
      {"TP", 8192,
       {{0, 0, 0, 0, 0}, {7, 12, 1, 10, 2}, {22, 16, 5, 10, 2},
        {22, 16, 15, 0, 0}, {29, 28, 16, 10, 2}}},
      {"TPC", 98304,
       {{0, 0, 0, 0, 0}, {7, 33, 25, 8, 4}, {18, 62, 54, 8, 4},
        {18, 62, 60, 2, 0}, {25, 95, 87, 8, 4}}},
      {"EXACT", 2048,
       {{0, 0, 0, 0, 0}, {9, 13, 4, 9, 2}, {24, 20, 11, 9, 2},
        {24, 20, 11, 0, 0}, {33, 33, 15, 9, 2}}},
      {"CG", 2048,
       {{0, 0, 0, 0, 0}, {9, 13, 4, 9, 2}, {24, 20, 11, 9, 2},
        {24, 20, 11, 0, 0}, {33, 33, 15, 9, 2}}},
  };
  const ErOptions options = FastOptions();
  for (const CacheTraceCase& c : cases) {
    DynamicGraph dyn(gen::ErdosRenyi(30, 140, 7));
    auto snapshot = dyn.Current();
    std::vector<decltype(snapshot)> held = {snapshot};  // graphs must live
    auto estimator = CreateEstimator(c.name, *snapshot->graph, options);
    ASSERT_NE(estimator, nullptr) << c.name;
    const std::vector<NodeId> landmarks = SelectLandmarks(*snapshot->graph, 2);
    const NodeId a = landmarks[0];
    const NodeId b = landmarks[1];
    // Landmark and non-landmark endpoints on both sides, recurring and
    // batch-singleton nodes, a reversed pair and an s == t query.
    const std::vector<QueryPair> queries = {
        {a, 5},  {5, 9},   {9, b},   {12, 27}, {27, 12}, {7, 7},
        {3, 18}, {18, a},  {21, 25}, {b, 3},   {14, 5},  {25, 9}};
    std::vector<QueryStats> stats(queries.size());
    CacheCounters actual[5];

    estimator->EnableSessionCache(c.budget_bytes, landmarks);
    actual[0] = CountersOf(estimator->SessionCacheStats());
    RunQueryBatch(*estimator, queries, stats);
    actual[1] = CountersOf(estimator->SessionCacheStats());
    RunQueryBatch(*estimator, queries, stats);
    actual[2] = CountersOf(estimator->SessionCacheStats());

    UpdateGenerator generator(dyn, 4242);
    for (const EdgeUpdate& op : generator.NextBatch(3)) dyn.Apply(op);
    snapshot = dyn.Commit();
    held.push_back(snapshot);
    GraphEpoch epoch;
    epoch.epoch = snapshot->epoch;
    epoch.touched = std::span<const NodeId>(snapshot->touched);
    epoch.resized = snapshot->resized;
    ASSERT_TRUE(estimator->RebindGraph(*snapshot->graph, epoch)) << c.name;
    actual[3] = CountersOf(estimator->SessionCacheStats());
    RunQueryBatch(*estimator, queries, stats);
    actual[4] = CountersOf(estimator->SessionCacheStats());

    for (int step = 0; step < 5; ++step) {
      EXPECT_EQ(actual[step], c.expected[step])
          << c.name << " checkpoint " << step << "; full trace: " << actual[0]
          << ", " << actual[1] << ", " << actual[2] << ", " << actual[3]
          << ", " << actual[4];
    }
  }
}

// Epoch swap: landmark state bound to the old graph must not leak into
// the new epoch. After RebindGraph the rebound estimator — with its
// landmarks rebuilt and re-pinned by the queries that touch them —
// answers bit-identically to a fresh estimator built on the
// from-scratch rebuild, for every estimator with session state.
TEST(LandmarkCacheTest, EpochSwapKeepsFreshVsRebindBitIdentity) {
  const ErOptions options = FastOptions();  // no λ: rebinds re-derive it
  for (const std::string name :
       {"EXACT", "CG", "TP", "TPC", "SMM", "GEER"}) {
    DynamicGraph dyn(gen::ErdosRenyi(30, 140, 7));
    auto snapshot = dyn.Current();
    std::vector<decltype(snapshot)> held = {snapshot};  // graphs must live
    auto estimator = CreateEstimator(name, *snapshot->graph, options);
    ASSERT_NE(estimator, nullptr) << name;
    const std::vector<NodeId> landmarks =
        SelectLandmarks(*snapshot->graph, 5);
    estimator->EnableSessionCache(0, landmarks);
    const std::vector<QueryPair> probe = {{landmarks[0], 9},
                                          {landmarks[1], 9}};
    BatchValues(*estimator, probe);  // builds and pins the landmarks
    EXPECT_GT(estimator->SessionCacheStats().pinned, 0u) << name;

    UpdateGenerator generator(dyn, 4242);
    for (int batch = 0; batch < 2; ++batch) {
      for (const EdgeUpdate& op : generator.NextBatch(7)) dyn.Apply(op);
      snapshot = dyn.Commit();
      held.push_back(snapshot);
      GraphEpoch epoch;
      epoch.epoch = snapshot->epoch;
      epoch.touched = std::span<const NodeId>(snapshot->touched);
      epoch.resized = snapshot->resized;
      ASSERT_TRUE(estimator->RebindGraph(*snapshot->graph, epoch)) << name;
      // Query between swaps so stale-yet-cached state would surface.
      BatchValues(*estimator, probe);
    }

    const Graph rebuilt = dyn.BuildFromScratch();
    auto fresh = CreateEstimator(name, rebuilt, options);
    auto fresh_pinned = CreateEstimator(name, rebuilt, options);
    fresh_pinned->EnableSessionCache(0, SelectLandmarks(rebuilt, 5));
    BatchValues(*fresh_pinned, probe);
    const std::vector<QueryPair> queries = {
        {landmarks[0], 9}, {9, landmarks[0]}, {landmarks[1], landmarks[2]},
        {0, 5}, {12, 28}};
    const std::vector<double> rebound = BatchValues(*estimator, queries);
    const std::vector<double> pinned = BatchValues(*fresh_pinned, queries);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const QueryPair& q = queries[i];
      EXPECT_EQ(rebound[i], fresh->Estimate(q.s, q.t))
          << name << " rebind-vs-fresh (" << q.s << "," << q.t << ")";
      EXPECT_EQ(rebound[i], pinned[i])
          << name << " rebind-vs-fresh-pinned (" << q.s << "," << q.t
          << ")";
    }
  }
}

}  // namespace
}  // namespace geer
