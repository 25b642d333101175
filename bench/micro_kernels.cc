// Micro-benchmarks (google-benchmark) for the substrate kernels the
// estimators are built on: RNG throughput, walk stepping, sparse vs
// dense SpMV, Laplacian CG solve, Lanczos preprocessing (cold λ alone in
// BM_SpectralBoundsCold), Wilson's UST sampling, and graph construction
// (BM_GraphBuild, BM_MakeYoutubeGraph).

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "eval/datasets.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "linalg/laplacian_solver.h"
#include "linalg/spectral.h"
#include "linalg/transition.h"
#include "rw/rng.h"
#include "rw/walker.h"
#include "rw/wilson.h"

namespace geer {
namespace {

const Graph& BenchGraph() {
  static const Graph graph = gen::RMat(13, 16, 7);  // ~8k nodes, ~130k edges
  return graph;
}

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_RngNext);

void BM_RngBounded(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextBounded(12345));
  }
}
BENCHMARK(BM_RngBounded);

void BM_WalkStep(benchmark::State& state) {
  const Graph& g = BenchGraph();
  Walker walker(g);
  Rng rng(2);
  NodeId cur = 0;
  for (auto _ : state) {
    cur = walker.Step(cur, rng);
    benchmark::DoNotOptimize(cur);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalkStep);

void BM_TruncatedWalk(benchmark::State& state) {
  const Graph& g = BenchGraph();
  Walker walker(g);
  Rng rng(3);
  const std::uint32_t length = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(walker.WalkEndpoint(0, length, rng));
  }
  state.SetItemsProcessed(state.iterations() * length);
}
BENCHMARK(BM_TruncatedWalk)->Arg(8)->Arg(32)->Arg(128);

void BM_SpmvDense(benchmark::State& state) {
  const Graph& g = BenchGraph();
  TransitionOperator op(g);
  Vector x(g.NumNodes(), 1.0 / g.NumNodes());
  Vector y;
  for (auto _ : state) {
    op.ApplyDense(x, &y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * g.NumArcs());
}
BENCHMARK(BM_SpmvDense);

void BM_SpmvSparseFrontier(benchmark::State& state) {
  // Cost of the first `hops` sparse iterations from a one-hot vector —
  // the regime GEER's greedy rule lives in.
  const Graph& g = BenchGraph();
  TransitionOperator op(g);
  const int hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    TransitionOperator::SparseVector x;
    x.InitOneHot(42, g);
    for (int i = 0; i < hops; ++i) op.ApplyAuto(&x);
    benchmark::DoNotOptimize(x.values.data());
  }
}
BENCHMARK(BM_SpmvSparseFrontier)->Arg(1)->Arg(2)->Arg(3);

void BM_LaplacianCgSolve(benchmark::State& state) {
  const Graph& g = BenchGraph();
  LaplacianSolver solver(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.EffectiveResistance(0, 999));
  }
}
BENCHMARK(BM_LaplacianCgSolve);

void BM_SpectralPreprocessing(benchmark::State& state) {
  const Graph& g = BenchGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSpectralBounds(g).lambda);
  }
}
BENCHMARK(BM_SpectralPreprocessing);

// Cold λ alone, the run that stops at its residual certificate, with its
// Krylov dimension: on the facebook stand-in's graph, BA(4000, 22), and
// on the youtube stand-in's (R-MAT, 31k nodes after the largest
// component, 250 KB per Krylov vector).
const Graph& FacebookGraph() {
  static const Graph graph = gen::BarabasiAlbert(4000, 22, /*seed=*/0xFB);
  return graph;
}

const Graph& YoutubeGraph() {
  static const Graph graph = MakeDataset("youtube")->graph;
  return graph;
}

void BM_SpectralBoundsCold(benchmark::State& state,
                           const Graph& (*make_graph)()) {
  const Graph& graph = make_graph();
  SpectralBounds sb;
  for (auto _ : state) {
    sb = ComputeSpectralBounds(graph);
    benchmark::DoNotOptimize(sb.lambda);
  }
  state.counters["lanczos_iterations"] = sb.lanczos_iterations;
}
BENCHMARK_CAPTURE(BM_SpectralBoundsCold, facebook_ba4000, &FacebookGraph)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SpectralBoundsCold, youtube_rmat, &YoutubeGraph)
    ->Unit(benchmark::kMillisecond);

void BM_WilsonUst(benchmark::State& state) {
  const Graph& g = BenchGraph();
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleUniformSpanningTree(g, 0, rng).parent);
  }
}
BENCHMARK(BM_WilsonUst);

// GraphBuilder::Build alone on the youtube stand-in's edge list, in a
// fixed shuffled order (a generator emits edges unordered).
void BM_GraphBuild(benchmark::State& state) {
  std::vector<Edge> edges = YoutubeGraph().Edges();
  Rng rng(5);
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.NextBounded(i)]);
  }
  GraphBuilder builder(YoutubeGraph().NumNodes());
  builder.AddEdges(edges);
  for (auto _ : state) {
    const Graph g = builder.Build();
    benchmark::DoNotOptimize(g.NeighborArray().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_GraphBuild)->Unit(benchmark::kMillisecond);

// The youtube stand-in's generator: R-MAT edge sampling, dedup, Build and
// the largest component (MakeDataset's graph layer before λ).
void BM_MakeYoutubeGraph(benchmark::State& state) {
  for (auto _ : state) {
    const Graph g = gen::RMat(16, 3, /*seed=*/0x17);
    benchmark::DoNotOptimize(g.NeighborArray().data());
  }
}
BENCHMARK(BM_MakeYoutubeGraph)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace geer

BENCHMARK_MAIN();
