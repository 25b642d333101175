#include "eval/ground_truth.h"

#include <memory>

#include "core/options.h"
#include "core/smm.h"
#include "linalg/laplacian_solver.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace geer {

std::vector<double> GroundTruthCg(const Graph& graph,
                                  const std::vector<QueryPair>& queries,
                                  int num_threads) {
  std::vector<double> truth(queries.size(), 0.0);
  if (queries.empty()) return truth;
  LaplacianSolver::Options opt;
  opt.tolerance = 1e-12;
  opt.max_iterations = 50000;
  // Solve() is const and allocates per call, so one solver serves every
  // worker of the team race-free.
  const LaplacianSolver solver(graph, opt);
  ThreadTeam team(ResolveWorkerCount(num_threads, queries.size()));
  team.ParallelFor(queries.size(), [&](int /*worker*/, std::size_t i) {
    truth[i] = solver.EffectiveResistance(queries[i].s, queries[i].t);
  });
  return truth;
}

std::vector<double> GroundTruthSmm(const Graph& graph,
                                   const std::vector<QueryPair>& queries,
                                   std::uint32_t iterations,
                                   int num_threads) {
  GEER_CHECK_GT(iterations, 0u);
  std::vector<double> truth(queries.size(), 0.0);
  if (queries.empty()) return truth;
  const int workers = ResolveWorkerCount(num_threads, queries.size());
  // The transition operator owns scratch buffers, so each worker gets
  // its own (constructed once per worker, not once per query).
  std::vector<std::unique_ptr<TransitionOperator>> ops;
  ops.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    ops.push_back(std::make_unique<TransitionOperator>(graph));
  }
  ThreadTeam team(workers);
  team.ParallelFor(queries.size(), [&](int worker, std::size_t i) {
    SmmIterator iter(graph, ops[worker].get(), queries[i].s, queries[i].t);
    for (std::uint32_t k = 0; k < iterations; ++k) iter.Advance();
    truth[i] = iter.rb();
  });
  return truth;
}

}  // namespace geer
