// The dynamic-graph correctness contract (src/dyn/): after ANY update
// sequence, (1) the incrementally committed snapshot's CSR arrays are
// IDENTICAL to a from-scratch build from the final edge list, in both
// weight modes and under shuffled update orders / commit partitions, and
// (2) every registered estimator — all 12 algorithms, both weight modes
// — answers bit-identically on the rebound estimator (constructed on
// epoch 0, RebindGraph'd through every commit) and on a freshly
// constructed estimator over the from-scratch rebuild. Also pins the
// commit metadata (touched rows, resized flag, epochs) and the
// SELECTIVE session invalidation: SMM/GEER iterate caches survive
// updates outside their dependency set (zero fresh source-side SpMV on
// the next visit) and are evicted by updates inside it.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include <cmath>

#include "core/batch_engine.h"
#include "core/exact.h"
#include "core/registry.h"
#include "core/smm.h"
#include "core/solver_er.h"
#include "core/spectral_epoch.h"
#include "core/tp.h"
#include "core/tpc.h"
#include "dyn/dynamic_graph.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/weighted_generators.h"
#include "linalg/spectral.h"
#include "rw/rng.h"
#include "test_util.h"

namespace geer {
namespace {

ErOptions TestOptions() {
  ErOptions opt;
  opt.epsilon = 0.5;
  opt.delta = 0.1;
  opt.seed = 20260801;
  opt.tp_scale = 0.01;   // scaled constants keep the suite fast; this
  opt.tpc_scale = 0.01;  // suite checks bit-identity, not accuracy
  opt.mc_gamma_upper = 8.0;
  return opt;
}

template <WeightPolicy WP>
void ExpectSameArrays(const typename WP::GraphT& a,
                      const typename WP::GraphT& b,
                      const std::string& label) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes()) << label;
  EXPECT_EQ(a.Offsets(), b.Offsets()) << label;
  EXPECT_EQ(a.NeighborArray(), b.NeighborArray()) << label;
  if constexpr (WP::kWeighted) {
    EXPECT_EQ(a.WeightArray(), b.WeightArray()) << label;
    EXPECT_EQ(a.TotalWeight(), b.TotalWeight()) << label;
    for (NodeId v = 0; v < a.NumNodes(); ++v) {
      EXPECT_EQ(a.Strength(v), b.Strength(v)) << label << " node " << v;
    }
  }
}

template <WeightPolicy WP>
typename WP::GraphT BaseGraph();

template <>
Graph BaseGraph<UnitWeight>() {
  return gen::ErdosRenyi(30, 140, 7);
}

template <>
WeightedGraph BaseGraph<EdgeWeight>() {
  return gen::WithUniformWeights(gen::ErdosRenyi(30, 140, 7), 0.5, 2.0, 11);
}

// Generator-driven random update streams commit after every batch; the
// final snapshot must equal the from-scratch build bit for bit.
template <WeightPolicy WP>
void RunArraysMatchFromScratch() {
  DynamicGraphT<WP> dyn(BaseGraph<WP>());
  UpdateGeneratorT<WP> generator(dyn, 99);
  for (int batch = 0; batch < 6; ++batch) {
    for (const EdgeUpdate& op : generator.NextBatch(9)) dyn.Apply(op);
    // Compare BEFORE committing too: BuildFromScratch sees pending state.
    const typename WP::GraphT scratch = dyn.BuildFromScratch();
    auto snapshot = dyn.Commit();
    ExpectSameArrays<WP>(*snapshot->graph, scratch,
                         "batch " + std::to_string(batch));
    EXPECT_EQ(snapshot->epoch, static_cast<std::uint64_t>(batch + 1));
  }
}

TEST(DynConsistencyTest, ArraysMatchFromScratchUnweighted) {
  RunArraysMatchFromScratch<UnitWeight>();
}

TEST(DynConsistencyTest, ArraysMatchFromScratchWeighted) {
  RunArraysMatchFromScratch<EdgeWeight>();
}

// Logically commuting updates (distinct edges) applied in shuffled
// orders with different commit partitions converge to identical arrays:
// weights are absolute overwrites, never accumulations.
template <WeightPolicy WP>
void RunShuffledOrdersConverge() {
  const typename WP::GraphT base = BaseGraph<WP>();
  // Distinct-edge update set: chord insertions, deletions of existing
  // edges, and (weighted) re-weights of other existing edges.
  std::vector<EdgeUpdate> updates;
  Rng rng(5);
  const NodeId n = base.NumNodes();
  for (int k = 0; k < 10; ++k) {
    for (int attempt = 0; attempt < 200; ++attempt) {
      const NodeId u = static_cast<NodeId>(rng.NextBounded(n));
      const NodeId v = static_cast<NodeId>(rng.NextBounded(n));
      if (u == v || base.HasEdge(u, v)) continue;
      bool dup = false;
      for (const EdgeUpdate& op : updates) {
        if ((op.u == u && op.v == v) || (op.u == v && op.v == u)) dup = true;
      }
      if (dup) continue;
      updates.push_back({EdgeUpdateKind::kInsert, u, v,
                         WP::kWeighted ? 1.5 + 0.25 * k : 1.0});
      break;
    }
  }
  const auto base_edges = base.Edges();
  for (int k = 0; k < 6; ++k) {
    const auto& e = base_edges[(k * 37) % base_edges.size()];
    if constexpr (WP::kWeighted) {
      updates.push_back(k % 2 == 0
                            ? EdgeUpdate{EdgeUpdateKind::kDelete, e.u, e.v, 0}
                            : EdgeUpdate{EdgeUpdateKind::kSetWeight, e.u,
                                         e.v, 3.25 + k});
    } else {
      updates.push_back({EdgeUpdateKind::kDelete, e.first, e.second, 0.0});
    }
  }

  std::vector<std::vector<std::uint64_t>> reference_offsets;
  std::vector<typename WP::GraphT> finals;
  for (const std::uint64_t shuffle_seed : {0ull, 1ull, 2ull, 3ull}) {
    std::vector<EdgeUpdate> order = updates;
    if (shuffle_seed != 0) {
      Rng shuffle_rng(shuffle_seed);
      std::shuffle(order.begin(), order.end(), shuffle_rng);
    }
    DynamicGraphT<WP> dyn(BaseGraph<WP>());
    // Vary the commit partition with the order: every (2 + seed) ops.
    const std::size_t chunk = 2 + static_cast<std::size_t>(shuffle_seed);
    for (std::size_t i = 0; i < order.size(); ++i) {
      dyn.Apply(order[i]);
      if ((i + 1) % chunk == 0) dyn.Commit();
    }
    auto snapshot = dyn.Commit();
    finals.push_back(*snapshot->graph);
  }
  for (std::size_t i = 1; i < finals.size(); ++i) {
    ExpectSameArrays<WP>(finals[0], finals[i],
                         "shuffle " + std::to_string(i));
  }
}

TEST(DynConsistencyTest, ShuffledUpdateOrdersConvergeUnweighted) {
  RunShuffledOrdersConverge<UnitWeight>();
}

TEST(DynConsistencyTest, ShuffledUpdateOrdersConvergeWeighted) {
  RunShuffledOrdersConverge<EdgeWeight>();
}

TEST(DynConsistencyTest, CommitMetadataAndPendingView) {
  DynamicGraph dyn(testing::TriangleWithTail());  // 0-1,1-2,2-0,2-3,3-4
  EXPECT_EQ(dyn.Epoch(), 0u);
  EXPECT_TRUE(dyn.HasEdge(0, 1));
  EXPECT_FALSE(dyn.HasEdge(0, 3));

  dyn.InsertEdge(0, 3);
  dyn.DeleteEdge(3, 4);
  EXPECT_TRUE(dyn.HasEdge(0, 3));   // pending view sees the insert
  EXPECT_FALSE(dyn.HasEdge(3, 4));  // and the delete
  EXPECT_EQ(dyn.Current()->graph->NumEdges(), 5u);  // published view does not

  auto snapshot = dyn.Commit();
  EXPECT_EQ(snapshot->epoch, 1u);
  EXPECT_FALSE(snapshot->resized);
  // Touched = endpoints of changed edges, sorted.
  EXPECT_EQ(snapshot->touched, (std::vector<NodeId>{0, 3, 4}));
  EXPECT_TRUE(snapshot->graph->HasEdge(0, 3));
  EXPECT_FALSE(snapshot->graph->HasEdge(3, 4));

  // No-op commit publishes nothing new.
  auto same = dyn.Commit();
  EXPECT_EQ(same->epoch, 1u);
  EXPECT_EQ(same.get(), snapshot.get());

  // Insert-then-delete of the same absent edge collapses to a no-op.
  dyn.InsertEdge(1, 4);
  dyn.DeleteEdge(1, 4);
  EXPECT_EQ(dyn.Commit()->epoch, 1u);

  // ... but when the collapsed insert GREW the node count, the growth
  // itself still commits (Commit must equal BuildFromScratch, which
  // sees the larger pending node count).
  dyn.InsertEdge(0, 5);
  dyn.DeleteEdge(0, 5);
  const Graph grown_scratch = dyn.BuildFromScratch();
  auto growth_only = dyn.Commit();
  EXPECT_EQ(growth_only->epoch, 2u);
  EXPECT_TRUE(growth_only->resized);
  EXPECT_TRUE(growth_only->touched.empty());
  EXPECT_EQ(growth_only->graph->NumNodes(), 6u);
  EXPECT_EQ(growth_only->graph->NumNodes(), grown_scratch.NumNodes());
  EXPECT_EQ(growth_only->graph->NumEdges(), grown_scratch.NumEdges());

  // Node growth sets `resized` and grows the published node count.
  dyn.InsertEdge(4, 7);
  auto grown = dyn.Commit();
  EXPECT_EQ(grown->epoch, 3u);
  EXPECT_TRUE(grown->resized);
  EXPECT_EQ(grown->graph->NumNodes(), 8u);
  EXPECT_EQ(grown->graph->Degree(6), 0u);  // gap nodes exist, isolated
  EXPECT_EQ(grown->touched, (std::vector<NodeId>{4, 7}));

  // The log records every accepted update in order.
  EXPECT_EQ(dyn.Log().size(), 7u);
}

TEST(DynConsistencyTest, InvalidUpdatesAreRejected) {
  DynamicGraph dyn(testing::TriangleWithTail());
  EXPECT_DEATH(dyn.InsertEdge(0, 1), "already present");
  EXPECT_DEATH(dyn.DeleteEdge(0, 3), "not present");
  EXPECT_DEATH(dyn.InsertEdge(2, 2), "self-loop");
  // The node count is max(u, v) + 1 in 32 bits: this id would wrap it.
  const NodeId reserved = std::numeric_limits<NodeId>::max();
  EXPECT_DEATH(dyn.InsertEdge(0, reserved), "reserved");
  EXPECT_DEATH(dyn.InsertEdge(reserved, 1), "reserved");
}

// The acceptance matrix: every registered estimator, both weight modes,
// rebound through every epoch of an update sequence, answers
// bit-identically to a fresh estimator on the from-scratch rebuild.
template <WeightPolicy WP>
void RunEveryEstimatorBitIdentical(bool enable_session) {
  const ErOptions options = TestOptions();  // no λ: rebinds re-derive it

  for (const std::string& name : EstimatorNames()) {
    DynamicGraphT<WP> graph(BaseGraph<WP>());
    auto snapshot = graph.Current();
    auto estimator = CreateEstimatorT<WP>(name, *snapshot->graph, options);
    ASSERT_NE(estimator, nullptr) << name;
    if (enable_session) estimator->EnableSessionCache();

    UpdateGeneratorT<WP> generator(graph, 4242);
    std::vector<decltype(snapshot)> held = {snapshot};  // graphs must live
    for (int batch = 0; batch < 3; ++batch) {
      for (const EdgeUpdate& op : generator.NextBatch(7)) graph.Apply(op);
      snapshot = graph.Commit();
      held.push_back(snapshot);
      GraphEpoch epoch;
      epoch.epoch = snapshot->epoch;
      epoch.touched = std::span<const NodeId>(snapshot->touched);
      epoch.resized = snapshot->resized;
      ASSERT_TRUE(estimator->RebindGraph(*snapshot->graph, epoch)) << name;
      // Answer a query ON the intermediate epoch so session caches (when
      // enabled) actually carry state across the swaps.
      if (estimator->SupportsQuery(1, 2)) {
        (void)estimator->EstimateWithStats(1, 2);
      }
    }

    const typename WP::GraphT rebuilt = graph.BuildFromScratch();
    auto fresh = CreateEstimatorT<WP>(name, rebuilt, options);
    const auto final_edges = snapshot->graph->Edges();
    std::vector<QueryPair> queries = {{0, 5}, {3, 17}, {3, 9}, {7, 7},
                                      {12, 28}, {3, 17}};
    if constexpr (WP::kWeighted) {
      queries.push_back({final_edges[0].u, final_edges[0].v});
      queries.push_back({final_edges[3].u, final_edges[3].v});
    } else {
      queries.push_back({final_edges[0].first, final_edges[0].second});
      queries.push_back({final_edges[3].first, final_edges[3].second});
    }
    for (const QueryPair& q : queries) {
      const bool supported = estimator->SupportsQuery(q.s, q.t);
      ASSERT_EQ(supported, fresh->SupportsQuery(q.s, q.t))
          << name << " (" << q.s << "," << q.t << ")";
      if (!supported) continue;
      EXPECT_EQ(estimator->Estimate(q.s, q.t), fresh->Estimate(q.s, q.t))
          << name << " (" << q.s << "," << q.t << ")"
          << (enable_session ? " [session]" : "");
    }
  }
}

TEST(DynConsistencyTest, EveryEstimatorBitIdenticalUnweighted) {
  RunEveryEstimatorBitIdentical<UnitWeight>(/*enable_session=*/false);
}

TEST(DynConsistencyTest, EveryEstimatorBitIdenticalWeighted) {
  RunEveryEstimatorBitIdentical<EdgeWeight>(/*enable_session=*/false);
}

TEST(DynConsistencyTest, EveryEstimatorBitIdenticalWithSessions) {
  RunEveryEstimatorBitIdentical<UnitWeight>(/*enable_session=*/true);
  RunEveryEstimatorBitIdentical<EdgeWeight>(/*enable_session=*/true);
}

// The selective-invalidation contract of the SMM/GEER session caches: a
// commit whose touched set misses a source cache's dependency set keeps
// that cache (the revisit pays ZERO fresh source-side SpMV), while a
// commit inside it evicts (full cost again) — and both revisits answer
// exactly what a fresh estimator on the new graph answers.
TEST(DynConsistencyTest, SmmSessionSurvivesDisjointUpdates) {
  // A long path: with a fixed 3-iteration SMM, the dependency set of
  // source 5 is its 3-hop ball — updates beyond it must not evict.
  GraphBuilder b(200);
  for (NodeId v = 0; v + 1 < 200; ++v) b.AddEdge(v, v + 1);
  const Graph base = b.Build();
  ErOptions options = TestOptions();
  options.smm_iterations = 3;
  options.lambda = 0.5;  // pinned: ℓ formulas are bypassed anyway

  DynamicGraph dyn{Graph(base)};
  auto snapshot = dyn.Current();
  SmmEstimator estimator(*snapshot->graph, options);
  estimator.EnableSessionCache();

  const std::vector<QueryPair> warm = {{5, 9}, {5, 12}};
  std::vector<QueryStats> cold_stats(warm.size());
  RunQueryBatch(estimator, warm, cold_stats);
  const std::uint64_t cold_spmv =
      cold_stats[0].spmv_ops + cold_stats[1].spmv_ops;
  ASSERT_GT(cold_spmv, 0u);

  // Far update: chord {150, 160} — outside source 5's 3-hop ball.
  dyn.InsertEdge(150, 160);
  snapshot = dyn.Commit();
  GraphEpoch far;
  far.epoch = snapshot->epoch;
  far.touched = std::span<const NodeId>(snapshot->touched);
  ASSERT_TRUE(estimator.RebindGraph(*snapshot->graph, far));
  std::vector<QueryStats> warm_stats(warm.size());
  RunQueryBatch(estimator, warm, warm_stats);
  // Cache kept: the revisit pays only the target-side SpMV, never the
  // shared source side again.
  const std::uint64_t warm_spmv =
      warm_stats[0].spmv_ops + warm_stats[1].spmv_ops;
  EXPECT_LT(warm_spmv, cold_spmv)
      << "far-away update must keep the iterate cache";
  {
    SmmEstimator fresh(*snapshot->graph, options);
    for (const QueryPair& q : warm) {
      EXPECT_EQ(estimator.Estimate(q.s, q.t), fresh.Estimate(q.s, q.t));
    }
  }

  // Near update: chord {6, 9} — inside the dependency set; must evict.
  dyn.InsertEdge(6, 9);
  auto near_snapshot = dyn.Commit();
  GraphEpoch near_epoch;
  near_epoch.epoch = near_snapshot->epoch;
  near_epoch.touched = std::span<const NodeId>(near_snapshot->touched);
  ASSERT_TRUE(estimator.RebindGraph(*near_snapshot->graph, near_epoch));
  std::vector<QueryStats> evicted_stats(warm.size());
  RunQueryBatch(estimator, warm, evicted_stats);
  EXPECT_GT(evicted_stats[0].spmv_ops + evicted_stats[1].spmv_ops, warm_spmv)
      << "in-dependency update must evict the iterate cache";
  {
    SmmEstimator fresh(*near_snapshot->graph, options);
    for (const QueryPair& q : warm) {
      EXPECT_EQ(estimator.Estimate(q.s, q.t), fresh.Estimate(q.s, q.t));
    }
  }
}

// ---- PR 7: incremental epoch maintenance -------------------------------

// Shared fixture for the TP/TPC retention tests: a 200-node path, λ
// pinned at 0.5 so PengEll = 3 and the walk schedule never changes
// across epochs — retention is then decided purely by the visit sets.
Graph PathGraph200() {
  GraphBuilder b(200);
  for (NodeId v = 0; v + 1 < 200; ++v) b.AddEdge(v, v + 1);
  return b.Build();
}

GraphEpoch PinnedEpoch(const DynSnapshot& snapshot) {
  GraphEpoch epoch;
  epoch.epoch = snapshot.epoch;
  epoch.touched = std::span<const NodeId>(snapshot.touched);
  epoch.resized = snapshot.resized;
  epoch.lambda = 0.5;
  return epoch;
}

// TP visit-set retention: walks from node v reach at most ℓ = 3 hops, so
// a chord far down the path keeps every warm population (the revisit
// simulates ZERO fresh walks and answers bitwise what a fresh estimator
// answers), while an update inside a population's visited rows evicts it.
TEST(DynConsistencyTest, TpSessionSurvivesDisjointUpdates) {
  ErOptions options = TestOptions();
  options.lambda = 0.5;

  DynamicGraph dyn(PathGraph200());
  auto snapshot = dyn.Current();
  TpEstimator estimator(*snapshot->graph, options);
  estimator.EnableSessionCache();
  (void)estimator.EstimateWithStats(5, 9);
  (void)estimator.EstimateWithStats(5, 12);

  // Far update: chord {150, 160} — beyond any warm walk's 3-hop reach.
  dyn.InsertEdge(150, 160);
  snapshot = dyn.Commit();
  ASSERT_TRUE(estimator.RebindGraph(*snapshot->graph,
                                    PinnedEpoch(*snapshot)));
  EXPECT_GT(estimator.IncrementalRebinds(), 0u);
  const QueryStats retained = estimator.EstimateWithStats(5, 9);
  EXPECT_EQ(retained.walks, 0u)
      << "disjoint update must keep the walk populations";
  {
    TpEstimator fresh(*snapshot->graph, options);
    EXPECT_EQ(retained.value, fresh.Estimate(5, 9));
  }

  // Near update: chord {6, 9} — node 9 is a warm population's own start
  // node, so its visit set intersects and the entry must go.
  dyn.InsertEdge(6, 9);
  auto near_snapshot = dyn.Commit();
  ASSERT_TRUE(estimator.RebindGraph(*near_snapshot->graph,
                                    PinnedEpoch(*near_snapshot)));
  const QueryStats evicted = estimator.EstimateWithStats(5, 9);
  EXPECT_GT(evicted.walks, 0u)
      << "update inside the visit set must evict";
  {
    TpEstimator fresh(*near_snapshot->graph, options);
    EXPECT_EQ(evicted.value, fresh.Estimate(5, 9));
  }
}

// TPC analogue. Populations are prefix-pure, so survival means the
// revisit spawns zero walks AND takes zero steps; values stay bitwise
// equal to a fresh estimator either way.
TEST(DynConsistencyTest, TpcSessionSurvivesDisjointUpdates) {
  ErOptions options = TestOptions();
  options.lambda = 0.5;

  DynamicGraph dyn(PathGraph200());
  auto snapshot = dyn.Current();
  TpcEstimator estimator(*snapshot->graph, options);
  estimator.EnableSessionCache();
  (void)estimator.EstimateWithStats(5, 9);

  dyn.InsertEdge(150, 160);
  snapshot = dyn.Commit();
  ASSERT_TRUE(estimator.RebindGraph(*snapshot->graph,
                                    PinnedEpoch(*snapshot)));
  EXPECT_GT(estimator.IncrementalRebinds(), 0u);
  const QueryStats retained = estimator.EstimateWithStats(5, 9);
  EXPECT_EQ(retained.walks, 0u);
  EXPECT_EQ(retained.walk_steps, 0u);
  {
    TpcEstimator fresh(*snapshot->graph, options);
    EXPECT_EQ(retained.value, fresh.Estimate(5, 9));
  }

  dyn.InsertEdge(6, 9);
  auto near_snapshot = dyn.Commit();
  ASSERT_TRUE(estimator.RebindGraph(*near_snapshot->graph,
                                    PinnedEpoch(*near_snapshot)));
  const QueryStats evicted = estimator.EstimateWithStats(5, 9);
  EXPECT_GT(evicted.walks, 0u);
  {
    TpcEstimator fresh(*near_snapshot->graph, options);
    EXPECT_EQ(evicted.value, fresh.Estimate(5, 9));
  }
}

// Warm-started Lanczos: the per-epoch λ derived through a shared
// spectral holder under GraphEpoch::incremental (a) stays within the
// documented 1e-6 drift of the cold computation, (b) actually
// warm-starts from the second non-resized epoch on, and (c) is
// DETERMINISTIC — replaying the same epoch sequence through a fresh
// holder reproduces every λ bit for bit.
template <WeightPolicy WP>
void RunWarmSpectralBoundedDriftAndDeterministic() {
  // Pre-generate the epoch sequence once so both replays see identical
  // graphs.
  DynamicGraphT<WP> dyn(BaseGraph<WP>());
  UpdateGeneratorT<WP> generator(dyn, 303);
  std::vector<std::shared_ptr<const DynSnapshotT<WP>>> snapshots;
  for (int batch = 0; batch < 4; ++batch) {
    for (const EdgeUpdate& op : generator.NextBatch(5)) dyn.Apply(op);
    snapshots.push_back(dyn.Commit());
  }

  std::vector<std::vector<double>> replays;
  for (int replay = 0; replay < 2; ++replay) {
    auto holder = MakeSharedSpectral();
    std::vector<double> lambdas;
    bool prior_epoch_warmable = false;
    for (const auto& snap : snapshots) {
      GraphEpoch epoch;
      epoch.epoch = snap->epoch;
      epoch.touched = std::span<const NodeId>(snap->touched);
      epoch.resized = snap->resized;
      epoch.incremental = true;
      epoch.spectral = holder;
      bool warm = false;
      const double lambda = RebindLambda<WP>(*snap->graph, epoch, &warm);
      const double cold = ComputeSpectralBoundsT<WP>(*snap->graph).lambda;
      EXPECT_LE(std::abs(lambda - cold), 1e-6)
          << "epoch " << snap->epoch << " warm λ drifted";
      EXPECT_EQ(warm, prior_epoch_warmable && !snap->resized)
          << "epoch " << snap->epoch;
      // A resized epoch runs cold and records nothing, so the warm
      // chain restarts at the NEXT incremental epoch.
      prior_epoch_warmable = !snap->resized;
      lambdas.push_back(lambda);
    }
    replays.push_back(std::move(lambdas));
  }
  EXPECT_EQ(replays[0], replays[1]) << "warm λ sequence not deterministic";
}

TEST(DynConsistencyTest, WarmSpectralBoundedDriftUnweighted) {
  RunWarmSpectralBoundedDriftAndDeterministic<UnitWeight>();
}

TEST(DynConsistencyTest, WarmSpectralBoundedDriftWeighted) {
  RunWarmSpectralBoundedDriftAndDeterministic<EdgeWeight>();
}

// EXACT under GraphEpoch::incremental: small touched sets take the
// rank-1 Cholesky update path (counted by IncrementalRebinds) and agree
// with a freshly factorized estimator to tight relative tolerance on
// every query.
template <WeightPolicy WP>
void RunExactIncrementalFactorMatchesFresh() {
  const ErOptions options = TestOptions();
  DynamicGraphT<WP> dyn(BaseGraph<WP>());
  auto snapshot = dyn.Current();
  ExactEstimatorT<WP> estimator(*snapshot->graph, options);

  UpdateGeneratorT<WP> generator(dyn, 818);
  const std::vector<QueryPair> queries = {{0, 5}, {3, 17}, {12, 28}};
  for (int batch = 0; batch < 3; ++batch) {
    // 2 ops per commit: well under the max(4, n/4) crossover, so the
    // incremental path engages unless the commit resized the graph.
    for (const EdgeUpdate& op : generator.NextBatch(2)) dyn.Apply(op);
    // The previous graph must outlive the rebind: the first rebinder of
    // an incremental epoch diffs old-vs-new CSR rows (the serving tier
    // guarantees this by retaining the outgoing snapshot until the swap
    // completes).
    auto prev = snapshot;
    snapshot = dyn.Commit();
    GraphEpoch epoch;
    epoch.epoch = snapshot->epoch;
    epoch.touched = std::span<const NodeId>(snapshot->touched);
    epoch.resized = snapshot->resized;
    epoch.incremental = true;
    ASSERT_TRUE(estimator.RebindGraph(*snapshot->graph, epoch));

    ExactEstimatorT<WP> fresh(*snapshot->graph, options);
    for (const QueryPair& q : queries) {
      const double got = estimator.Estimate(q.s, q.t);
      const double want = fresh.Estimate(q.s, q.t);
      EXPECT_LE(std::abs(got - want), 1e-8 * std::max(1.0, std::abs(want)))
          << "epoch " << snapshot->epoch << " (" << q.s << "," << q.t << ")";
    }
  }
  EXPECT_GT(estimator.IncrementalRebinds(), 0u)
      << "rank-1 factor path never engaged";
}

TEST(DynConsistencyTest, ExactIncrementalFactorMatchesFreshUnweighted) {
  RunExactIncrementalFactorMatchesFresh<UnitWeight>();
}

TEST(DynConsistencyTest, ExactIncrementalFactorMatchesFreshWeighted) {
  RunExactIncrementalFactorMatchesFresh<EdgeWeight>();
}

// CG's touched-row Jacobi refresh is structurally exact, so it is
// always on (no incremental flag) and already covered bit-for-bit by
// EveryEstimatorBitIdentical; here we pin that a plain non-resized
// rebind reports it through the counter.
TEST(DynConsistencyTest, CgTouchedRowRefreshCountsIncremental) {
  DynamicGraph dyn(BaseGraph<UnitWeight>());
  auto snapshot = dyn.Current();
  SolverEstimatorT<UnitWeight> estimator(*snapshot->graph, TestOptions());
  EXPECT_EQ(estimator.IncrementalRebinds(), 0u);

  dyn.InsertEdge(0, 17);
  snapshot = dyn.Commit();
  ASSERT_FALSE(snapshot->resized);
  GraphEpoch epoch;
  epoch.epoch = snapshot->epoch;
  epoch.touched = std::span<const NodeId>(snapshot->touched);
  ASSERT_TRUE(estimator.RebindGraph(*snapshot->graph, epoch));
  EXPECT_EQ(estimator.IncrementalRebinds(), 1u);

  SolverEstimatorT<UnitWeight> fresh(*snapshot->graph, TestOptions());
  EXPECT_EQ(estimator.Estimate(0, 17), fresh.Estimate(0, 17));
}

}  // namespace
}  // namespace geer
