// High-accuracy ER via a preconditioned CG Laplacian solve per query.
// Not one of the paper's competitors; used as a scalable ground-truth
// cross-check for the SMM-based ground truth of §5.1, in both weight
// modes (the EdgeWeight instantiation is the weighted W-CG oracle).

#ifndef GEER_CORE_SOLVER_ER_H_
#define GEER_CORE_SOLVER_ER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/epoch_shared.h"
#include "core/estimator.h"
#include "core/node_state_cache.h"
#include "core/options.h"
#include "graph/weight_policy.h"
#include "linalg/laplacian_solver.h"

namespace geer {

/// One cached CG solve L† ê_v — CG's session payload; `converged`
/// feeds QueryStats::truncated. It is a function of the whole Laplacian
/// (no DependsOn), so every epoch flushes it.
struct CgColumn {
  Vector y;
  bool converged = false;
  std::size_t ApproxBytes() const {
    return y.size() * sizeof(double) + sizeof(CgColumn);
  }
};

template <WeightPolicy WP>
class SolverEstimatorT
    : public SessionCachedEstimator<typename WP::GraphT, NodeId, CgColumn> {
 public:
  using GraphT = typename WP::GraphT;

  explicit SolverEstimatorT(const GraphT& graph, ErOptions options = {});
  // Stores a pointer to `graph`; a temporary would dangle.
  explicit SolverEstimatorT(GraphT&&, ErOptions = {}) = delete;

  std::string Name() const override {
    return std::string(WP::kNamePrefix) + "CG";
  }

  /// r(s, t) = (y_u[u] − y_u[v]) − (y_v[u] − y_v[v]) from the two CG
  /// COLUMNS y_x = L† ê_x (the solver centers e_x onto 𝟙^⊥) with
  /// (u, v) = (min, max): the centering parts cancel in the difference,
  /// the combination is bitwise symmetric in (s, t), and — because a
  /// column is a pure function of its node — identical whether the
  /// columns come from the session cache, a pinned landmark, or a
  /// direct solve.
  QueryStats EstimateWithStats(NodeId s, NodeId t) override;

  /// Batch workers share the solver (graph view + Jacobi preconditioner);
  /// Solve() is const and allocates per call, so sharing is race-free.
  /// The clone's column cache starts cold (per-worker, no sharing races).
  std::unique_ptr<ErEstimator> CloneForBatch() const override {
    return std::unique_ptr<ErEstimator>(new SolverEstimatorT<WP>(*this));
  }

  /// Dynamic-graph hook: once per epoch across every clone sharing the
  /// holder (core/epoch_shared.h), the solver is rebound — by refreshing
  /// only the touched rows of the Jacobi diagonal (O(|touched|),
  /// bit-identical to a fresh construction, so it needs no opt-in) when
  /// the node count is unchanged, else by a full rebuild — and the
  /// per-worker column cache is flushed.
  using ErEstimator::RebindGraph;
  bool RebindGraph(const GraphT& graph, const GraphEpoch& epoch) override;

  std::uint64_t IncrementalRebinds() const override {
    return incremental_rebinds_.load(std::memory_order_relaxed);
  }

 private:
  using Base = SessionCachedEstimator<GraphT, NodeId, CgColumn>;
  using Base::graph_;
  using Base::session_;

  // One epoch's shared solver plus its provenance (full rebuild vs
  // touched-row refresh) — adopters read the flag into their counters.
  struct SolverEntry {
    std::shared_ptr<const LaplacianSolverT<WP>> solver;
    bool incremental = false;
  };

  // Clone constructor: adopts the shared solver and its epoch holder;
  // the session cache starts off (per-worker state).
  SolverEstimatorT(const SolverEstimatorT& other)
      : Base(*other.graph_),
        solver_(other.solver_),
        shared_solver_(other.shared_solver_) {}

  /// L† ê_node — from the session cache when enabled (solved on a
  /// miss), else into `scratch`. The returned pointer stays valid across
  /// one more ColumnFor call (list-backed).
  const CgColumn* ColumnFor(NodeId node, CgColumn* scratch);
  CgColumn SolveColumn(NodeId node) const;

  /// Solves and pins the landmark's column.
  void WarmLandmark(NodeId lm) override {
    session_->GetOrCreate(lm, [&] { return SolveColumn(lm); });
  }

  std::shared_ptr<const LaplacianSolverT<WP>> solver_;
  std::shared_ptr<EpochShared<SolverEntry>> shared_solver_;
  std::atomic<std::uint64_t> incremental_rebinds_{0};
};

/// The two stacks, by their historical names. The EdgeWeight
/// instantiation is the weighted ground-truth oracle ("W-CG").
using SolverEstimator = SolverEstimatorT<UnitWeight>;
using WeightedSolverEstimator = SolverEstimatorT<EdgeWeight>;

extern template class SolverEstimatorT<UnitWeight>;
extern template class SolverEstimatorT<EdgeWeight>;

}  // namespace geer

#endif  // GEER_CORE_SOLVER_ER_H_
