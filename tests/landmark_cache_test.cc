// The landmark/hub layer's contract suite: landmark SELECTION is a pure
// deterministic function of the graph (+ seed) with ties broken by node
// id; EXACT/CG answers combined from cached landmark columns are
// BIT-IDENTICAL to direct solves (linearity — rank-one centering parts
// cancel in the 4-term combination); warmed walk/iterate methods
// (TP/TPC/SMM/GEER) answer bit-identically to unwarmed instances and
// stay within the contract-test accuracy budget against the CG oracle
// in both weight modes; the cache hit/miss counters are EXACT on a
// scripted trace; and an epoch swap (dyn RebindGraph) invalidates
// landmark state such that rebound-and-rewarmed answers equal a fresh
// estimator's bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <ostream>
#include <vector>

#include "centrality/landmarks.h"
#include "core/batch_engine.h"
#include "core/exact.h"
#include "core/registry.h"
#include "core/solver_er.h"
#include "dyn/dynamic_graph.h"
#include "graph/generators.h"
#include "graph/weighted_generators.h"
#include "linalg/spectral.h"
#include "rw/rng.h"
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

TEST(LandmarkSelectionTest, SpanningCentralitySelectionDeterministic) {
  const Graph graph = Fixture();
  SpanningCentralityOptions options;
  options.seed = 7;
  const std::vector<NodeId> a =
      SelectLandmarksBySpanningCentrality(graph, 6, options);
  const std::vector<NodeId> b =
      SelectLandmarksBySpanningCentrality(graph, 6, options);
  EXPECT_EQ(a, b);  // run-to-run: pure function of (graph, seed)
  ASSERT_EQ(a.size(), 6u);
  std::vector<NodeId> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (const NodeId lm : a) EXPECT_LT(lm, graph.NumNodes());
}

// Query pairs mixing landmark-landmark, landmark-other (both endpoint
// positions), other-other, s > t, and s == t.
std::vector<QueryPair> MixedQueries(std::span<const NodeId> landmarks) {
  const NodeId a = landmarks[0];
  const NodeId b = landmarks[1];
  return {{a, b}, {b, a}, {a, 17}, {17, a}, {23, b},
          {14, 29}, {29, 14}, {a, a}, {2, 35}};
}

TEST(LandmarkCacheTest, ExactCombinedFromLandmarkColumnsBitIdentical) {
  const Graph graph = Fixture();
  const std::vector<NodeId> landmarks = SelectLandmarks(graph, 6);
  ExactEstimator direct(graph);  // no session cache at all
  ExactEstimator warmed(graph);
  EXPECT_EQ(warmed.WarmLandmarks(landmarks), landmarks.size());
  const CacheStats after_warm = warmed.SessionCacheStats();
  EXPECT_EQ(after_warm.pinned, landmarks.size());
  EXPECT_EQ(after_warm.entries, landmarks.size());
  EXPECT_GT(after_warm.bytes, 0u);

  for (const QueryPair& q : MixedQueries(landmarks)) {
    EXPECT_EQ(warmed.Estimate(q.s, q.t), direct.Estimate(q.s, q.t))
        << "EXACT (" << q.s << "," << q.t << ")";
    // Combination from cached columns is bitwise symmetric.
    EXPECT_EQ(warmed.Estimate(q.s, q.t), warmed.Estimate(q.t, q.s))
        << "EXACT symmetric (" << q.s << "," << q.t << ")";
  }
}

TEST(LandmarkCacheTest, CgCombinedFromLandmarkColumnsBitIdentical) {
  const Graph graph = Fixture();
  const std::vector<NodeId> landmarks = SelectLandmarks(graph, 6);
  SolverEstimator direct(graph);
  SolverEstimator warmed(graph);
  EXPECT_EQ(warmed.WarmLandmarks(landmarks), landmarks.size());
  for (const QueryPair& q : MixedQueries(landmarks)) {
    EXPECT_EQ(warmed.Estimate(q.s, q.t), direct.Estimate(q.s, q.t))
        << "CG (" << q.s << "," << q.t << ")";
    EXPECT_EQ(warmed.Estimate(q.s, q.t), warmed.Estimate(q.t, q.s))
        << "CG symmetric (" << q.s << "," << q.t << ")";
  }
}

TEST(LandmarkCacheTest, WarmedWalkMethodsBitIdenticalToUnwarmed) {
  const Graph graph = Fixture();
  ErOptions opt = FastOptions();
  opt.lambda = ComputeSpectralBounds(graph).lambda;
  const std::vector<NodeId> landmarks = SelectLandmarks(graph, 6);
  for (const std::string name : {"TP", "TPC", "SMM", "GEER"}) {
    auto plain = CreateEstimator(name, graph, opt);
    auto warmed = CreateEstimator(name, graph, opt);
    ASSERT_NE(plain, nullptr) << name;
    EXPECT_GT(warmed->WarmLandmarks(landmarks), 0u) << name;
    for (const QueryPair& q : MixedQueries(landmarks)) {
      EXPECT_EQ(warmed->Estimate(q.s, q.t), plain->Estimate(q.s, q.t))
          << name << " (" << q.s << "," << q.t << ")";
    }
    // Warming is idempotent: a second warm re-pins resident entries and
    // still changes no answers.
    EXPECT_GT(warmed->WarmLandmarks(landmarks), 0u) << name;
    EXPECT_EQ(warmed->Estimate(landmarks[0], 17),
              plain->Estimate(landmarks[0], 17))
        << name << " after re-warm";
  }
}

TEST(LandmarkCacheTest, WarmedWalkMethodsWithinContractBoundsVsCgOracle) {
  const Graph graph = Fixture();
  ErOptions opt = FastOptions();
  opt.lambda = ComputeSpectralBounds(graph).lambda;
  const std::vector<NodeId> landmarks = SelectLandmarks(graph, 6);
  SolverEstimator oracle(graph);
  for (const std::string name : {"TP", "TPC", "SMM", "GEER"}) {
    auto warmed = CreateEstimator(name, graph, opt);
    ASSERT_NE(warmed, nullptr) << name;
    warmed->WarmLandmarks(landmarks);
    for (const QueryPair& q :
         {QueryPair{landmarks[0], 17}, {23, landmarks[1]}, {14, 29}}) {
      const double truth = oracle.Estimate(q.s, q.t);
      EXPECT_NEAR(warmed->Estimate(q.s, q.t), truth, opt.epsilon + 1e-9)
          << name << " (" << q.s << "," << q.t << ")";
    }
  }
}

TEST(LandmarkCacheTest, WeightedWarmedMethodsWithinBoundsVsWeightedCg) {
  const WeightedGraph graph =
      gen::WithUniformWeights(Fixture(), 0.5, 2.0, 99);
  ErOptions opt = FastOptions();
  opt.lambda = ComputeWeightedSpectralBounds(graph).lambda;
  const std::vector<NodeId> landmarks = SelectLandmarks(graph, 6);
  WeightedSolverEstimator oracle(graph);
  for (const std::string name : {"TP", "SMM", "GEER"}) {
    auto plain = CreateWeightedEstimator(name, graph, opt);
    auto warmed = CreateWeightedEstimator(name, graph, opt);
    ASSERT_NE(warmed, nullptr) << name;
    warmed->WarmLandmarks(landmarks);
    for (const QueryPair& q :
         {QueryPair{landmarks[0], 17}, {23, landmarks[1]}, {14, 29}}) {
      EXPECT_EQ(warmed->Estimate(q.s, q.t), plain->Estimate(q.s, q.t))
          << "W-" << name << " (" << q.s << "," << q.t << ")";
      EXPECT_NEAR(warmed->Estimate(q.s, q.t), oracle.Estimate(q.s, q.t),
                  opt.epsilon + 1e-9)
          << "W-" << name << " (" << q.s << "," << q.t << ")";
    }
  }
}

// The session cache's counters on one scripted trace, per estimator:
// warm two landmarks, run a batch, repeat it, swap the epoch, run it
// again. Every lookup of the six node-keyed caches is deterministic, so
// hits/misses/evictions/entries/pinned are pinned EXACTLY at each
// checkpoint. The budgets are small enough that the LRU evicts, and the
// post-swap batch exercises the lazy re-pin of invalidated landmarks.
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
  // After: warm, batch, repeat batch, epoch swap, post-swap batch.
  CacheCounters expected[5];
};

TEST(LandmarkCacheTest, SessionCacheCountersOnScriptedTrace) {
  const CacheTraceCase cases[] = {
      {"SMM", 2048,
       {{0, 2, 0, 2, 2}, {11, 13, 5, 6, 2}, {22, 24, 14, 6, 2},
        {22, 24, 18, 2, 0}, {31, 37, 25, 6, 2}}},
      {"GEER", 2048,
       {{0, 2, 0, 2, 2}, {11, 13, 5, 6, 2}, {22, 24, 14, 6, 2},
        {22, 24, 18, 2, 0}, {31, 37, 25, 6, 2}}},
      {"TP", 8192,
       {{0, 2, 0, 2, 2}, {9, 12, 1, 10, 2}, {24, 16, 5, 10, 2},
        {24, 16, 15, 0, 0}, {31, 28, 16, 10, 2}}},
      {"TPC", 98304,
       {{0, 4, 0, 4, 4}, {11, 33, 25, 8, 4}, {22, 62, 54, 8, 4},
        {22, 62, 60, 2, 0}, {29, 95, 87, 8, 4}}},
      {"EXACT", 2048,
       {{0, 2, 0, 2, 2}, {11, 13, 4, 9, 2}, {26, 20, 11, 9, 2},
        {26, 20, 11, 0, 0}, {35, 33, 15, 9, 2}}},
      {"CG", 2048,
       {{0, 2, 0, 2, 2}, {11, 13, 4, 9, 2}, {26, 20, 11, 9, 2},
        {26, 20, 11, 0, 0}, {35, 33, 15, 9, 2}}},
  };
  const ErOptions options = FastOptions();
  for (const CacheTraceCase& c : cases) {
    DynamicGraph dyn(gen::ErdosRenyi(30, 140, 7));
    auto snapshot = dyn.Current();
    std::vector<decltype(snapshot)> held = {snapshot};  // graphs must live
    auto estimator = CreateEstimator(c.name, *snapshot->graph, options);
    ASSERT_NE(estimator, nullptr) << c.name;
    estimator->EnableSessionCache(c.budget_bytes);
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

    estimator->WarmLandmarks(landmarks);
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
// landmarks lazily re-warmed — answers bit-identically to a fresh
// estimator built on the from-scratch rebuild, for every estimator with
// warmable state.
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
    EXPECT_GT(estimator->WarmLandmarks(landmarks), 0u) << name;
    (void)estimator->Estimate(landmarks[0], 9);  // use the warm state

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
      (void)estimator->Estimate(landmarks[0], 9);
    }

    const Graph rebuilt = dyn.BuildFromScratch();
    auto fresh = CreateEstimator(name, rebuilt, options);
    auto fresh_warmed = CreateEstimator(name, rebuilt, options);
    fresh_warmed->WarmLandmarks(SelectLandmarks(rebuilt, 5));
    const QueryPair queries[] = {
        {landmarks[0], 9}, {9, landmarks[0]}, {landmarks[1], landmarks[2]},
        {0, 5}, {12, 28}};
    for (const QueryPair& q : queries) {
      const double rebound = estimator->Estimate(q.s, q.t);
      EXPECT_EQ(rebound, fresh->Estimate(q.s, q.t))
          << name << " rebind-vs-fresh (" << q.s << "," << q.t << ")";
      EXPECT_EQ(rebound, fresh_warmed->Estimate(q.s, q.t))
          << name << " rebind-vs-fresh-warmed (" << q.s << "," << q.t
          << ")";
    }
  }
}

}  // namespace
}  // namespace geer
