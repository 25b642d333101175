// PendantForest and PendantCore: the degree-1 peel, the series-law
// reduction of a query pair to the 2-core, and the 2-core as a graph of
// its own (C), checked against the dense Laplacian pseudo-inverse on
// every pair, in both weight modes — plus the spectral lemma that lets
// GEER walk C under G's λ: λ(C) ≤ λ(G).

#include "graph/algorithms.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/weight_policy.h"
#include "graph/weighted_generators.h"
#include "linalg/jacobi_eigen.h"
#include "linalg/spectral.h"
#include "rw/rng.h"

namespace geer {
namespace {

/// All-pairs effective resistance from L† = Σ_{λ>0} v vᵀ / λ (Jacobi).
template <WeightPolicy WP>
Matrix PseudoInverseEr(const typename WP::GraphT& graph) {
  const NodeId n = graph.NumNodes();
  Matrix lap(n, n);
  const auto arcs = WP::Arcs(graph);
  for (NodeId u = 0; u < n; ++u) {
    std::uint64_t k = graph.Offsets()[u];
    for (NodeId v : graph.Neighbors(u)) {
      lap(u, v) -= arcs[k];
      lap(u, u) += arcs[k];
      ++k;
    }
  }
  const EigenDecomposition eig = JacobiEigenSolve(lap);
  Matrix pinv(n, n);
  for (NodeId j = 0; j < n; ++j) {
    const double lambda = eig.eigenvalues[j];
    if (lambda < 1e-9) continue;  // the all-ones null space
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = 0; b < n; ++b) {
        pinv(a, b) += eig.eigenvectors(a, j) * eig.eigenvectors(b, j) / lambda;
      }
    }
  }
  Matrix er(n, n);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      er(a, b) = pinv(a, a) + pinv(b, b) - 2.0 * pinv(a, b);
    }
  }
  return er;
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// offset + r(a, b) = r(s, t) on every pair, to 1e-9 relative, with the
/// reduction bitwise symmetric in (s, t).
template <WeightPolicy WP>
void ExpectSeriesLawOnEveryPair(const typename WP::GraphT& graph,
                                const std::string& name) {
  const std::shared_ptr<const PendantForest> forest =
      PendantForest::Build(graph);
  ASSERT_NE(forest, nullptr) << name;
  const Matrix er = PseudoInverseEr<WP>(graph);
  for (NodeId s = 0; s < graph.NumNodes(); ++s) {
    for (NodeId t = 0; t < graph.NumNodes(); ++t) {
      const PendantForest::Reduction r = forest->Reduce(s, t);
      const PendantForest::Reduction back = forest->Reduce(t, s);
      EXPECT_EQ(r.a, back.b) << name << " (" << s << "," << t << ")";
      EXPECT_EQ(r.b, back.a) << name << " (" << s << "," << t << ")";
      EXPECT_EQ(Bits(r.offset), Bits(back.offset))
          << name << " (" << s << "," << t << ")";
      if (forest->Root(s) != forest->Root(t)) {
        EXPECT_EQ(r.a, forest->Root(s)) << name;
        EXPECT_EQ(r.b, forest->Root(t)) << name;
      } else {
        EXPECT_EQ(r.a, r.b) << name;
      }
      if (s == t) {
        EXPECT_EQ(r.a, s) << name;
        EXPECT_EQ(r.offset, 0.0) << name;
        continue;
      }
      const double core = r.a == r.b ? 0.0 : er(r.a, r.b);
      const double truth = er(s, t);
      EXPECT_LE(std::abs(r.offset + core - truth), 1e-9 * truth)
          << name << " (" << s << "," << t << ") offset " << r.offset
          << " core " << core << " truth " << truth;
    }
  }
}

/// Triangle 0-1-2 with a branching tree of depth 4 on node 2
/// (2-3, 3-4, 3-5, 4-6, 4-7, 6-8) and a single leaf 9 on node 0.
Graph TriangleWithBranchingTree() {
  return BuildGraph(10, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {3, 5},
                         {4, 6}, {4, 7}, {6, 8}, {0, 9}});
}

/// A core with two cycles (0-1-2-3 with chord 0-2, triangle 3-4-5) and
/// trees on four of its nodes (on 1: 6, 7, 8; on 4: the path 9-10-11;
/// on 5: 12-13).
Graph CoreWithTrees() {
  return BuildGraph(14, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {3, 4},
                         {4, 5}, {5, 3}, {1, 6}, {6, 7}, {6, 8}, {4, 9},
                         {9, 10}, {10, 11}, {5, 12}, {12, 13}});
}

WeightedGraph WeightedTriangleWithBranchingTree() {
  WeightedGraphBuilder b(10);
  b.AddEdge(0, 1, 2.0).AddEdge(1, 2, 0.5).AddEdge(2, 0, 3.0);
  b.AddEdge(2, 3, 0.25).AddEdge(3, 4, 4.0).AddEdge(3, 5, 1.5);
  b.AddEdge(4, 6, 0.3).AddEdge(4, 7, 7.0).AddEdge(6, 8, 0.9);
  b.AddEdge(0, 9, 5.0);
  return b.Build();
}

TEST(PendantForestTest, NoDegreeOneNodeMeansNoForest) {
  EXPECT_EQ(PendantForest::Build(gen::Cycle(7)), nullptr);
  EXPECT_EQ(PendantForest::Build(gen::Complete(5)), nullptr);
  EXPECT_EQ(PendantForest::Build(gen::WithUniformWeights(gen::Cycle(7), 0.5,
                                                         2.0, 3)),
            nullptr);
}

TEST(PendantForestTest, TriangleWithBranchingTreeStructure) {
  const auto forest = PendantForest::Build(TriangleWithBranchingTree());
  ASSERT_NE(forest, nullptr);
  EXPECT_EQ(forest->NumNodes(), 10u);
  EXPECT_EQ(forest->NumPeeled(), 7u);
  for (NodeId v : {0u, 1u, 2u}) {
    EXPECT_EQ(forest->Root(v), v);
    EXPECT_EQ(forest->Parent(v), v);
    EXPECT_EQ(forest->Depth(v), 0u);
    EXPECT_EQ(forest->Resistance(v), 0.0);
  }
  const NodeId parent[] = {0, 1, 2, 2, 3, 3, 4, 4, 6, 0};
  const std::uint32_t depth[] = {0, 0, 0, 1, 2, 2, 3, 3, 4, 1};
  for (NodeId v = 3; v < 10; ++v) {
    EXPECT_EQ(forest->Parent(v), parent[v]) << v;
    EXPECT_EQ(forest->Depth(v), depth[v]) << v;
    EXPECT_EQ(forest->Root(v), v == 9 ? 0u : 2u) << v;
    EXPECT_EQ(forest->Resistance(v), static_cast<double>(depth[v])) << v;
  }
  // Same tree: the walk meets at the lowest common ancestor.
  const PendantForest::Reduction siblings = forest->Reduce(8, 7);
  EXPECT_EQ(siblings.a, 4u);
  EXPECT_EQ(siblings.b, 4u);
  EXPECT_EQ(siblings.offset, 3.0);
  const PendantForest::Reduction cousins = forest->Reduce(5, 8);
  EXPECT_EQ(cousins.a, 3u);
  EXPECT_EQ(cousins.offset, 4.0);
  const PendantForest::Reduction to_root = forest->Reduce(2, 6);
  EXPECT_EQ(to_root.a, 2u);
  EXPECT_EQ(to_root.b, 2u);
  EXPECT_EQ(to_root.offset, 3.0);
  // Different roots: both ends climb all the way.
  const PendantForest::Reduction across = forest->Reduce(8, 9);
  EXPECT_EQ(across.a, 2u);
  EXPECT_EQ(across.b, 0u);
  EXPECT_EQ(across.offset, 5.0);
  // A core endpoint reduces to itself.
  const PendantForest::Reduction half = forest->Reduce(1, 6);
  EXPECT_EQ(half.a, 1u);
  EXPECT_EQ(half.b, 2u);
  EXPECT_EQ(half.offset, 3.0);
  const PendantForest::Reduction core = forest->Reduce(0, 1);
  EXPECT_EQ(core.a, 0u);
  EXPECT_EQ(core.b, 1u);
  EXPECT_EQ(core.offset, 0.0);
}

TEST(PendantForestTest, TreeOnlyGraphsKeepOneRoot) {
  const Graph trees[] = {gen::Path(7), gen::Star(6),
                         gen::BalancedBinaryTree(4), BuildGraph(2, {{0, 1}})};
  for (const Graph& g : trees) {
    const auto forest = PendantForest::Build(g);
    ASSERT_NE(forest, nullptr);
    EXPECT_EQ(forest->NumPeeled(), g.NumNodes() - 1);
    NodeId roots = 0;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      roots += forest->Root(v) == v ? 1 : 0;
      EXPECT_EQ(forest->Root(v), forest->Root(0));
    }
    EXPECT_EQ(roots, 1u);
    // The 2-core is empty: every pair is answered by its tree path.
    for (NodeId s = 0; s < g.NumNodes(); ++s) {
      const std::vector<std::uint32_t> hops = BfsDistances(g, s);
      for (NodeId t = 0; t < g.NumNodes(); ++t) {
        const PendantForest::Reduction r = forest->Reduce(s, t);
        EXPECT_EQ(r.a, r.b);
        EXPECT_EQ(r.offset, static_cast<double>(hops[t]))
            << "(" << s << "," << t << ")";
      }
    }
  }
}

TEST(PendantForestTest, SeriesLawMatchesPseudoInverseUnweighted) {
  ExpectSeriesLawOnEveryPair<UnitWeight>(gen::Path(6), "path");
  ExpectSeriesLawOnEveryPair<UnitWeight>(gen::Star(7), "star");
  ExpectSeriesLawOnEveryPair<UnitWeight>(gen::Lollipop(5, 4), "lollipop");
  ExpectSeriesLawOnEveryPair<UnitWeight>(TriangleWithBranchingTree(),
                                         "triangle+tree");
  ExpectSeriesLawOnEveryPair<UnitWeight>(CoreWithTrees(), "core+trees");
}

TEST(PendantForestTest, SeriesLawMatchesPseudoInverseWeighted) {
  ExpectSeriesLawOnEveryPair<EdgeWeight>(
      gen::SeriesChain({1.0, 2.5, 0.25, 4.0}), "series chain");
  ExpectSeriesLawOnEveryPair<EdgeWeight>(
      gen::WithUniformWeights(gen::Star(7), 0.2, 5.0, 11), "star");
  ExpectSeriesLawOnEveryPair<EdgeWeight>(
      gen::WithUniformWeights(gen::Lollipop(5, 4), 0.2, 5.0, 12),
      "lollipop");
  ExpectSeriesLawOnEveryPair<EdgeWeight>(WeightedTriangleWithBranchingTree(),
                                         "triangle+tree");
}

TEST(PendantForestTest, WeightedOffsetsAreSumsOfInverseWeights) {
  const auto forest = PendantForest::Build(WeightedTriangleWithBranchingTree());
  ASSERT_NE(forest, nullptr);
  // 8 → 6 → 4 → 3 → 2: 1/0.9 + 1/0.3 + 1/4 + 1/0.25, root-down.
  const double r8 = ((1.0 / 0.25 + 1.0 / 4.0) + 1.0 / 0.3) + 1.0 / 0.9;
  EXPECT_EQ(forest->Resistance(8), r8);
  EXPECT_EQ(forest->Depth(8), 4u);
  // Same tree, summed edge by edge from each end: (1/0.9 + 1/0.3) + 1/7.
  const PendantForest::Reduction r = forest->Reduce(8, 7);
  EXPECT_EQ(r.a, 4u);
  EXPECT_EQ(Bits(r.offset), Bits((1.0 / 0.9 + 1.0 / 0.3) + 1.0 / 7.0));
  const PendantForest::Reduction across = forest->Reduce(9, 8);
  EXPECT_EQ(across.a, 0u);
  EXPECT_EQ(across.b, 2u);
  EXPECT_EQ(Bits(across.offset), Bits(1.0 / 5.0 + r8));
}

TEST(PendantForestTest, UnitConductancesMatchTheUnweightedForestBitwise) {
  const Graph g = gen::Lollipop(4, 5);
  const auto unit = PendantForest::Build(g);
  const auto weighted = PendantForest::Build(FromUnweighted(g));
  ASSERT_NE(unit, nullptr);
  ASSERT_NE(weighted, nullptr);
  for (NodeId s = 0; s < g.NumNodes(); ++s) {
    EXPECT_EQ(Bits(unit->Resistance(s)), Bits(weighted->Resistance(s)));
    for (NodeId t = 0; t < g.NumNodes(); ++t) {
      const PendantForest::Reduction a = unit->Reduce(s, t);
      const PendantForest::Reduction b = weighted->Reduce(s, t);
      EXPECT_EQ(a.a, b.a);
      EXPECT_EQ(a.b, b.b);
      EXPECT_EQ(Bits(a.offset), Bits(b.offset));
    }
  }
}

TEST(PendantForestTest, ConcurrentReadersAgreeWithSerial) {
  // Clones of one estimator share a forest and reduce on their own
  // threads; Reduce reads only.
  const Graph g = CoreWithTrees();
  const auto forest = PendantForest::Build(g);
  ASSERT_NE(forest, nullptr);
  const NodeId n = g.NumNodes();
  std::vector<double> serial;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) {
      serial.push_back(forest->Reduce(s, t).offset);
    }
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<double>> seen(kThreads);
  std::vector<std::thread> readers;
  for (int r = 0; r < kThreads; ++r) {
    readers.emplace_back([&, r] {
      for (int round = 0; round < 50; ++round) {
        seen[r].clear();
        for (NodeId s = 0; s < n; ++s) {
          for (NodeId t = 0; t < n; ++t) {
            seen[r].push_back(forest->Reduce(s, t).offset);
          }
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (int r = 0; r < kThreads; ++r) {
    ASSERT_EQ(seen[r].size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(Bits(seen[r][i]), Bits(serial[i])) << "reader " << r;
    }
  }
}

/// The core's edges, relabelled to C's ids through CoreId, fed to the
/// builder of the graph's weight mode.
Graph BuildFromCoreEdges(const Graph& graph, const PendantCore<Graph>& core) {
  GraphBuilder b(core.graph().NumNodes());
  for (const auto& [u, v] : graph.Edges()) {
    if (core.InCore(u) && core.InCore(v)) {
      b.AddEdge(core.CoreId(u), core.CoreId(v));
    }
  }
  return b.Build();
}

WeightedGraph BuildFromCoreEdges(const WeightedGraph& graph,
                                 const PendantCore<WeightedGraph>& core) {
  WeightedGraphBuilder b(core.graph().NumNodes());
  for (const auto& e : graph.Edges()) {
    if (core.InCore(e.u) && core.InCore(e.v)) {
      b.AddEdge(core.CoreId(e.u), core.CoreId(e.v), e.weight);
    }
  }
  return b.Build();
}

template <typename G>
std::vector<double> WeightsOf(const G& graph) {
  if constexpr (std::is_same_v<G, WeightedGraph>) {
    return graph.WeightArray();
  } else {
    return {};
  }
}

/// C's CSR equals, byte for byte, GraphBuilder's graph of the core edges;
/// the id map is monotone, CoreNodes inverts it, a tree node maps to its
/// root's id; and r_C(a, b) = r_G(a, b) on every core pair.
template <WeightPolicy WP>
void ExpectCoreIsTheInducedCore(const typename WP::GraphT& graph,
                                const std::string& name) {
  using G = typename WP::GraphT;
  const std::shared_ptr<const PendantCore<G>> core =
      PendantCore<G>::Build(graph);
  ASSERT_NE(core, nullptr) << name;
  const G& c = core->graph();
  const PendantForest& forest = core->forest();
  EXPECT_EQ(c.NumNodes(), graph.NumNodes() - forest.NumPeeled()) << name;
  ASSERT_EQ(core->CoreNodes().size(), c.NumNodes()) << name;
  NodeId next = 0;
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    if (core->InCore(v)) {
      EXPECT_EQ(core->CoreId(v), next) << name << " node " << v;
      EXPECT_EQ(core->CoreNodes()[next], v) << name;
      ++next;
    } else {
      EXPECT_EQ(core->CoreId(v), core->CoreId(forest.Root(v)))
          << name << " node " << v;
    }
  }
  const G built = BuildFromCoreEdges(graph, *core);
  EXPECT_EQ(c.Offsets(), built.Offsets()) << name;
  EXPECT_EQ(c.NeighborArray(), built.NeighborArray()) << name;
  const std::vector<double> w = WeightsOf(c);
  const std::vector<double> w_built = WeightsOf(built);
  ASSERT_EQ(w.size(), w_built.size()) << name;
  for (std::size_t k = 0; k < w.size(); ++k) {
    EXPECT_EQ(Bits(w[k]), Bits(w_built[k])) << name << " arc " << k;
  }

  const Matrix er_g = PseudoInverseEr<WP>(graph);
  const Matrix er_c = PseudoInverseEr<WP>(c);
  for (NodeId a = 0; a < c.NumNodes(); ++a) {
    for (NodeId b = a + 1; b < c.NumNodes(); ++b) {
      const double truth =
          er_g(core->CoreNodes()[a], core->CoreNodes()[b]);
      EXPECT_LE(std::abs(er_c(a, b) - truth), 1e-9 * truth)
          << name << " core pair (" << a << "," << b << ")";
    }
  }
}

/// CoreWithTrees relabelled by v → 5v mod 14, so core and tree ids
/// interleave and C's ids differ from G's.
Graph ShuffledCoreWithTrees() {
  GraphBuilder b(14);
  for (const auto& [u, v] : CoreWithTrees().Edges()) {
    b.AddEdge((5 * u) % 14, (5 * v) % 14);
  }
  return b.Build();
}

TEST(PendantCoreTest, NoDegreeOneNodeMeansNoCore) {
  EXPECT_EQ(PendantCore<Graph>::Build(gen::Cycle(7)), nullptr);
  EXPECT_EQ(PendantCore<WeightedGraph>::Build(
                gen::WithUniformWeights(gen::Cycle(7), 0.5, 2.0, 3)),
            nullptr);
}

TEST(PendantCoreTest, CoreIsTheInducedCoreUnweighted) {
  ExpectCoreIsTheInducedCore<UnitWeight>(gen::Lollipop(5, 4), "lollipop");
  ExpectCoreIsTheInducedCore<UnitWeight>(TriangleWithBranchingTree(),
                                         "triangle+tree");
  ExpectCoreIsTheInducedCore<UnitWeight>(CoreWithTrees(), "core+trees");
  ExpectCoreIsTheInducedCore<UnitWeight>(ShuffledCoreWithTrees(),
                                         "shuffled core+trees");
}

TEST(PendantCoreTest, CoreIsTheInducedCoreWeighted) {
  ExpectCoreIsTheInducedCore<EdgeWeight>(
      gen::WithUniformWeights(gen::Lollipop(5, 4), 0.2, 5.0, 12),
      "lollipop");
  ExpectCoreIsTheInducedCore<EdgeWeight>(WeightedTriangleWithBranchingTree(),
                                         "triangle+tree");
  ExpectCoreIsTheInducedCore<EdgeWeight>(
      gen::WithUniformWeights(ShuffledCoreWithTrees(), 0.2, 5.0, 13),
      "shuffled core+trees");
}

TEST(PendantCoreTest, ReduceMapsTheCorePairToCoreIds) {
  const Graph g = ShuffledCoreWithTrees();
  const auto core = PendantCore<Graph>::Build(g);
  ASSERT_NE(core, nullptr);
  for (NodeId s = 0; s < g.NumNodes(); ++s) {
    for (NodeId t = 0; t < g.NumNodes(); ++t) {
      const PendantForest::Reduction in_g = core->forest().Reduce(s, t);
      const PendantForest::Reduction in_c = core->Reduce(s, t);
      EXPECT_EQ(in_c.a, core->CoreId(in_g.a));
      EXPECT_EQ(in_c.b, core->CoreId(in_g.b));
      EXPECT_EQ(Bits(in_c.offset), Bits(in_g.offset));
    }
  }
}

/// A random connected, non-bipartite graph with pendant trees: a
/// triangle grown by nodes joined to 2–3 earlier core nodes (so the
/// core has minimum degree 2), random chords, then tree nodes each
/// hung off a random earlier node, core or tree.
Graph RandomGraphWithTrees(Rng& rng) {
  const NodeId core_n = 3 + static_cast<NodeId>(rng.NextBounded(8));
  const NodeId tree_n = 1 + static_cast<NodeId>(rng.NextBounded(9));
  GraphBuilder b(core_n + tree_n);
  b.AddEdges({{0, 1}, {1, 2}, {2, 0}});
  for (NodeId v = 3; v < core_n; ++v) {
    const NodeId links = 2 + static_cast<NodeId>(rng.NextBounded(2));
    for (NodeId k = 0; k < links; ++k) {
      b.AddEdge(v, static_cast<NodeId>(rng.NextBounded(v)));
    }
  }
  const NodeId chords = static_cast<NodeId>(rng.NextBounded(core_n));
  for (NodeId k = 0; k < chords; ++k) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(core_n));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(core_n));
    if (u != v) b.AddEdge(u, v);
  }
  for (NodeId v = core_n; v < core_n + tree_n; ++v) {
    b.AddEdge(v, static_cast<NodeId>(rng.NextBounded(v)));
  }
  return b.Build();
}

/// The lemma GEER's walk on C rests on (core/geer.h): the dense λ of C
/// never exceeds G's, and the certified Lanczos λ of G bounds C's dense
/// λ, on 2,000 random graphs per weight mode.
template <WeightPolicy WP>
void ExpectCoreLambdaAtMostGraphLambda(std::uint64_t seed) {
  Rng rng(seed);
  int trees_on_tree_nodes = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const Graph skeleton = RandomGraphWithTrees(rng);
    typename WP::GraphT graph;
    if constexpr (WP::kWeighted) {
      graph = gen::WithUniformWeights(skeleton, 0.2, 5.0, seed + trial);
    } else {
      graph = skeleton;
    }
    const auto core = PendantCore<typename WP::GraphT>::Build(graph);
    ASSERT_NE(core, nullptr) << "trial " << trial;
    for (NodeId v = 0; v < graph.NumNodes(); ++v) {
      if (!core->InCore(v) && core->forest().Depth(v) > 1) {
        ++trees_on_tree_nodes;
        break;
      }
    }
    const double lambda_g = ComputeSpectralBoundsDenseT<WP>(graph).lambda;
    const double lambda_c =
        ComputeSpectralBoundsDenseT<WP>(core->graph()).lambda;
    const double certified = ComputeSpectralBoundsT<WP>(graph).lambda;
    EXPECT_LE(lambda_c, lambda_g + 1e-12) << "trial " << trial;
    EXPECT_GE(certified, lambda_c - 1e-12) << "trial " << trial;
  }
  // The fixture reaches trees that hang off tree nodes, not only leaves.
  EXPECT_GT(trees_on_tree_nodes, 500);
}

TEST(PendantCoreTest, CoreLambdaAtMostGraphLambdaUnweighted) {
  ExpectCoreLambdaAtMostGraphLambda<UnitWeight>(31);
}

TEST(PendantCoreTest, CoreLambdaAtMostGraphLambdaWeighted) {
  ExpectCoreLambdaAtMostGraphLambda<EdgeWeight>(32);
}

}  // namespace
}  // namespace geer
