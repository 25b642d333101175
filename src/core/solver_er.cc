#include "core/solver_er.h"

#include <algorithm>

#include "util/check.h"

namespace geer {
namespace {

template <WeightPolicy WP>
typename LaplacianSolverT<WP>::Options SolverOptionsFor(
    const ErOptions& options) {
  typename LaplacianSolverT<WP>::Options sopt;
  // Solve far below the query tolerance so this can serve as ground truth.
  sopt.tolerance = 1e-12;
  sopt.max_iterations = 20000;
  (void)options;
  return sopt;
}

}  // namespace

template <WeightPolicy WP>
SolverEstimatorT<WP>::SolverEstimatorT(const GraphT& graph,
                                       ErOptions options)
    : Base(graph),
      solver_(std::make_shared<const LaplacianSolverT<WP>>(
          graph, SolverOptionsFor<WP>(options))) {
  ValidateOptions(options);
  shared_solver_ = std::make_shared<EpochShared<SolverEntry>>(
      std::make_shared<const SolverEntry>(SolverEntry{solver_, false}));
}

template <WeightPolicy WP>
bool SolverEstimatorT<WP>::RebindGraph(const GraphT& graph,
                                       const GraphEpoch& epoch) {
  const auto entry = shared_solver_->GetOrUpdate(
      epoch.epoch,
      [&graph, &epoch](const std::shared_ptr<const SolverEntry>& prev)
          -> std::shared_ptr<const SolverEntry> {
        // Touched-row Jacobi refresh: bit-identical to a fresh build
        // (each diagonal entry is a pure function of its row), so it
        // applies whether or not the caller opted into epoch.incremental.
        if (prev != nullptr && prev->solver != nullptr && !epoch.resized) {
          return std::make_shared<const SolverEntry>(SolverEntry{
              std::make_shared<const LaplacianSolverT<WP>>(
                  graph, *prev->solver, epoch.touched),
              true});
        }
        // Solver options are derived from fixed constants (see
        // SolverOptionsFor), so the rebuild needs only the graph.
        return std::make_shared<const SolverEntry>(SolverEntry{
            std::make_shared<const LaplacianSolverT<WP>>(
                graph, SolverOptionsFor<WP>(ErOptions{})),
            false});
      });
  solver_ = entry->solver;
  if (entry->incremental) {
    incremental_rebinds_.fetch_add(1, std::memory_order_relaxed);
  }
  graph_ = &graph;
  // Columns are solutions against the old Laplacian: the session
  // flushes wholesale; landmark columns re-warm (and re-pin) lazily.
  if (session_ != nullptr) session_->Rebind(epoch);
  return true;
}

template <WeightPolicy WP>
CgColumn SolverEstimatorT<WP>::SolveColumn(NodeId node,
                                           QueryStats* stats) const {
  Vector b(graph_->NumNodes(), 0.0);
  b[node] = 1.0;
  CgColumn col;
  CgStats cg;
  // Solve() centers b onto 𝟙^⊥, so y = L† ê_node; the centering parts
  // cancel when two columns are differenced.
  col.y = solver_->Solve(b, &cg);
  col.converged = cg.converged;
  if (stats != nullptr) {
    ++stats->solves;
    // One Laplacian SpMV (every arc once) per CG iteration.
    stats->spmv_ops +=
        static_cast<std::uint64_t>(cg.iterations) * graph_->NumArcs();
  }
  return col;
}

template <WeightPolicy WP>
const CgColumn* SolverEstimatorT<WP>::ColumnFor(NodeId node,
                                                CgColumn* scratch,
                                                QueryStats* stats) {
  if (session_ == nullptr) {
    *scratch = SolveColumn(node, stats);
    return scratch;
  }
  return session_->GetOrCreate(node,
                               [&] { return SolveColumn(node, stats); });
}

template <WeightPolicy WP>
QueryStats SolverEstimatorT<WP>::EstimateWithStats(NodeId s, NodeId t) {
  GEER_CHECK(s < graph_->NumNodes());
  GEER_CHECK(t < graph_->NumNodes());
  QueryStats stats;
  if (s == t) return stats;
  const NodeId u = std::min(s, t);
  const NodeId v = std::max(s, t);
  CgColumn scratch_u;
  CgColumn scratch_v;
  const CgColumn* yu = ColumnFor(u, &scratch_u, &stats);
  const CgColumn* yv = ColumnFor(v, &scratch_v, &stats);
  stats.value = (yu->y[u] - yu->y[v]) - (yv->y[u] - yv->y[v]);
  stats.truncated = !(yu->converged && yv->converged);
  if (session_ != nullptr) session_->Sweep();
  return stats;
}

template class SolverEstimatorT<UnitWeight>;
template class SolverEstimatorT<EdgeWeight>;

}  // namespace geer
