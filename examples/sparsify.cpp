// Spectral graph sparsification by effective resistances (Spielman &
// Srivastava) — the flagship downstream application cited in the paper's
// introduction. Each edge is sampled with probability proportional to
// w_e·r(e); the sampled multigraph's Laplacian approximates the original
// quadratic form. Edge ERs are estimated with GEER; sampling and the
// quadratic-form check are the library's (sparsify/spectral_sparsifier.h).
//
//   ./examples/sparsify [num_samples_per_edge_factor]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/geer.h"
#include "graph/generators.h"
#include "linalg/spectral.h"
#include "sparsify/spectral_sparsifier.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace geer;
  const double sample_factor = argc > 1 ? std::atof(argv[1]) : 0.35;

  Graph graph = gen::RMat(11, 24, /*seed=*/5);  // ~2k nodes, dense-ish
  std::printf("input: n=%u m=%llu\n", graph.NumNodes(),
              static_cast<unsigned long long>(graph.NumEdges()));

  // 1. Estimate r(e) for every edge with GEER.
  SpectralBounds spectral = ComputeSpectralBounds(graph);
  ErOptions opt;
  opt.epsilon = 0.1;
  opt.lambda = spectral.lambda;
  GeerEstimator geer(graph, opt);
  Timer er_timer;
  std::vector<Edge> edges = graph.Edges();
  std::vector<double> resistance(edges.size());
  double total_r = 0.0;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    resistance[e] =
        std::max(1e-9, geer.Estimate(edges[e].first, edges[e].second));
    total_r += resistance[e];
  }
  std::printf("estimated %zu edge ERs in %.0f ms (Foster check: sum=%.1f "
              "vs n-1=%u)\n",
              edges.size(), er_timer.ElapsedMillis(), total_r,
              graph.NumNodes() - 1);

  // 2. Sample q edges with prob ∝ r(e); each sample adds 1/(q·p_e) to its
  //    edge's weight.
  SparsifierOptions sopt;
  sopt.samples = static_cast<std::uint64_t>(
      sample_factor * static_cast<double>(edges.size()));
  sopt.seed = 42;
  const WeightedGraph sparsifier =
      SparsifyByEffectiveResistance(graph, resistance, sopt);
  std::printf("sparsifier: kept %llu distinct edges (%.1f%% of m)\n",
              static_cast<unsigned long long>(sparsifier.NumEdges()),
              100.0 * sparsifier.NumEdges() / edges.size());

  // 3. Verify the quadratic form x'Lx is preserved on random test
  //    vectors (the sparsifier guarantee, spot-checked).
  const SparsifierQuality quality =
      EvaluateSparsifier(graph, sparsifier, /*probes=*/8, /*seed=*/43);
  std::printf("mean x'L~x / x'Lx over 8 test vectors: %.3f\n",
              quality.mean_ratio);
  std::printf("worst distortion: %.3fx\n", quality.worst_ratio);
  return quality.worst_ratio < 2.0 ? 0 : 1;
}
