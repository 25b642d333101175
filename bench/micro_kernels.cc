// Micro-benchmarks (google-benchmark) for the substrate kernels the
// estimators are built on: RNG throughput, walk stepping, sparse vs
// dense SpMV, Laplacian CG solve, Lanczos preprocessing (cold λ alone in
// BM_SpectralBoundsCold, and at 1–4 team threads in BM_LanczosTeam; its
// operator step alone in BM_NormalizedApply, at 1–4 team threads),
// Wilson's UST sampling, and graph construction (BM_GraphBuild,
// BM_MakeYoutubeGraph, and R-MAT at 1–4 team threads in BM_RMatTeam).

#include <benchmark/benchmark.h>
#include <sched.h>

#include <utility>
#include <vector>

#include "eval/datasets.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/weighted_generators.h"
#include "linalg/laplacian_solver.h"
#include "linalg/spectral.h"
#include "linalg/transition.h"
#include "rw/rng.h"
#include "rw/walker.h"
#include "rw/wilson.h"
#include "util/thread_pool.h"

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

// The team-size sweep behind the spectral run's size rule: the cold run
// of ComputeSpectralBounds with SpectralOptions::threads =
// state.range(0) instead of the size the rule picks. The facebook
// stand-in's BA(n, 22) at n = 700, 1500, 2200 and 3000 brackets the
// rule's low end (30,294, 65,494, 96,294 and 131,494 arcs). λ has the
// same bits at every size.
template <NodeId kNodes>
const Graph& ScaledFacebookGraph() {
  static const Graph graph = gen::BarabasiAlbert(kNodes, 22, /*seed=*/0xFB);
  return graph;
}

void BM_LanczosTeam(benchmark::State& state, const Graph& (*make_graph)()) {
  const Graph& graph = make_graph();
  SpectralOptions options;
  options.threads = static_cast<int>(state.range(0));
  SpectralBounds sb;
  for (auto _ : state) {
    sb = ComputeSpectralBounds(graph, options);
    benchmark::DoNotOptimize(sb.lambda);
  }
  state.counters["arcs"] = static_cast<double>(graph.NumArcs());
  state.counters["lanczos_iterations"] = sb.lanczos_iterations;
}
BENCHMARK_CAPTURE(BM_LanczosTeam, facebook_ba700, &ScaledFacebookGraph<700>)
    ->DenseRange(1, 4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_LanczosTeam, facebook_ba1500, &ScaledFacebookGraph<1500>)
    ->DenseRange(1, 4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_LanczosTeam, facebook_ba2200, &ScaledFacebookGraph<2200>)
    ->DenseRange(1, 4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_LanczosTeam, facebook_ba3000, &ScaledFacebookGraph<3000>)
    ->DenseRange(1, 4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_LanczosTeam, facebook_ba4000, &FacebookGraph)
    ->DenseRange(1, 4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_LanczosTeam, youtube_rmat, &YoutubeGraph)
    ->DenseRange(1, 4)
    ->Unit(benchmark::kMillisecond);

// One application of N = D_w^{-1/2} A_w D_w^{-1/2}, the step Lanczos
// repeats (twice per iteration when it regenerates the basis), on the
// stand-ins' graphs and on the youtube graph with weights spread 100×,
// on a ThreadTeam of state.range(0) threads (1 runs the serial Apply).
const WeightedGraph& WeightedYoutubeGraph() {
  static const WeightedGraph graph =
      gen::WithUniformWeights(YoutubeGraph(), 0.1, 10.0, /*seed=*/3);
  return graph;
}

template <WeightPolicy WP>
void NormalizedApplyLoop(benchmark::State& state,
                         const typename WP::GraphT& graph) {
  const NormalizedAdjacencyOperatorT<WP> op(graph);
  ThreadTeam team(static_cast<int>(state.range(0)));
  Vector x(op.Dim());
  Rng rng(6);
  for (double& e : x) e = rng.NextDouble() - 0.5;
  Vector y;
  for (auto _ : state) {
    op.Apply(x, &y, &team);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(graph.NumArcs()));
}

void BM_NormalizedApply(benchmark::State& state, const Graph& (*make_graph)()) {
  NormalizedApplyLoop<UnitWeight>(state, make_graph());
}
BENCHMARK_CAPTURE(BM_NormalizedApply, youtube_rmat, &YoutubeGraph)
    ->DenseRange(1, 4)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_NormalizedApply, facebook_ba4000, &FacebookGraph)
    ->DenseRange(1, 4)
    ->Unit(benchmark::kMicrosecond);

void BM_NormalizedApply(benchmark::State& state,
                        const WeightedGraph& (*make_graph)()) {
  NormalizedApplyLoop<EdgeWeight>(state, make_graph());
}
BENCHMARK_CAPTURE(BM_NormalizedApply, youtube_weighted, &WeightedYoutubeGraph)
    ->DenseRange(1, 4)
    ->Unit(benchmark::kMicrosecond);

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

// R-MAT at 1–4 CPUs: RMat(scale, edge_factor) with this thread's
// affinity mask narrowed to its first state.range(0) CPUs, the mask RMat
// sizes its team from (restored afterwards). The size rule (one thread
// per 8,192 first-round attempts) lets both graphs use all four CPUs, so
// every row runs the team size it names; the CSR bytes are the same at
// every size. The sweep that set the rule's constant also covers graphs
// the rule caps, so it ran with the rule relaxed to one thread per
// attempt (EXPERIMENTS.md, "Parallel R-MAT").
void BM_RMatTeam(benchmark::State& state, std::uint32_t scale,
                 std::uint64_t edge_factor) {
  cpu_set_t original;
  sched_getaffinity(0, sizeof(original), &original);
  cpu_set_t narrowed;
  CPU_ZERO(&narrowed);
  for (int cpu = 0, kept = 0; cpu < CPU_SETSIZE && kept < state.range(0);
       ++cpu) {
    if (CPU_ISSET(cpu, &original)) {
      CPU_SET(cpu, &narrowed);
      ++kept;
    }
  }
  sched_setaffinity(0, sizeof(narrowed), &narrowed);
  for (auto _ : state) {
    const Graph g = gen::RMat(scale, edge_factor, /*seed=*/0x17);
    benchmark::DoNotOptimize(g.NeighborArray().data());
  }
  sched_setaffinity(0, sizeof(original), &original);
  state.counters["attempts"] =
      static_cast<double>(edge_factor << scale);
}
BENCHMARK_CAPTURE(BM_RMatTeam, rmat13x4, 13, 4)
    ->DenseRange(1, 4)
    ->Unit(benchmark::kMillisecond);
// A first-round share per dedupe part that is a power of two
// (2^17 / 16 parts at 4 CPUs): the case the set's headroom is for.
BENCHMARK_CAPTURE(BM_RMatTeam, rmat15x4, 15, 4)
    ->DenseRange(1, 4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RMatTeam, youtube_rmat16x3, 16, 3)
    ->DenseRange(1, 4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace geer

BENCHMARK_MAIN();
