// EXACT baseline: effective resistance from a dense factorization of
// M = L_w + (1/n)𝟙𝟙ᵀ, which is SPD for connected graphs and agrees with
// L_w† on 𝟙^⊥ (L_w = D_w − A_w; unit weights give the paper's unweighted
// Laplacian). O(n³) setup, O(n²) memory — only viable for small graphs,
// reproducing the paper's OOM behaviour on everything but Facebook-scale.

#ifndef GEER_CORE_EXACT_H_
#define GEER_CORE_EXACT_H_

#include <memory>
#include <string>
#include <vector>

#include "core/epoch_shared.h"
#include "core/estimator.h"
#include "core/node_state_cache.h"
#include "core/options.h"
#include "graph/weight_policy.h"
#include "linalg/cholesky.h"

namespace geer {

/// A cached solver column M⁻¹ e_v — EXACT's session payload. It is a
/// function of the whole factorization (no DependsOn), so every epoch
/// flushes it.
struct ExactColumn {
  Vector y;
  std::size_t ApproxBytes() const {
    return y.size() * sizeof(double) + sizeof(Vector);
  }
};

template <WeightPolicy WP>
class ExactEstimatorT
    : public SessionCachedEstimator<typename WP::GraphT, NodeId,
                                    ExactColumn> {
 public:
  using GraphT = typename WP::GraphT;

  /// Factorizes the augmented Laplacian. Aborts if the graph exceeds
  /// `max_nodes` (the library's stand-in for running out of memory) or if
  /// the graph is disconnected (M then not PD).
  explicit ExactEstimatorT(const GraphT& graph, ErOptions options = {},
                           NodeId max_nodes = 8192);
  // Stores a pointer to `graph`; a temporary would dangle.
  explicit ExactEstimatorT(GraphT&&, ErOptions = {}, NodeId = 8192) = delete;

  std::string Name() const override {
    return std::string(WP::kNamePrefix) + "EXACT";
  }

  /// r(s, t) = (y_u[u] − y_u[v]) − (y_v[u] − y_v[v]) from the two solver
  /// COLUMNS y_x = M⁻¹ e_x with (u, v) = (min, max): exact by linearity
  /// (M⁻¹𝟙 = 𝟙, so the rank-one parts cancel in the difference), bitwise
  /// symmetric in (s, t), and — because a column is a pure function of
  /// its node — identical whether the columns come from the session
  /// cache, a pinned landmark, or a direct solve.
  QueryStats EstimateWithStats(NodeId s, NodeId t) override;

  /// Batch workers share the O(n²) factorization — the only per-graph
  /// state — instead of redoing the O(n³) setup per thread. The clone's
  /// column cache starts cold (per-worker, no sharing races).
  std::unique_ptr<ErEstimator> CloneForBatch() const override {
    return std::unique_ptr<ErEstimator>(new ExactEstimatorT<WP>(*this));
  }

  /// Dynamic-graph hook: the factorization depends on the WHOLE graph,
  /// so any epoch change invalidates it — but it is rebuilt exactly once
  /// per epoch across every clone sharing it (core/epoch_shared.h), not
  /// once per worker. With epoch.incremental and a small touched set
  /// (≤ n/4 changed edges — the rank-1 pass costs ~n²/2 vs n³/6 for a
  /// refactorization), the new factor is derived from the previous one
  /// by rank-1 edge updates/downdates instead of BuildFactor; values may
  /// then drift from a fresh factorization within ~1e-9 relative (README
  /// "Incremental epochs"). Falls back to the full rebuild whenever the
  /// heuristic, a resize, or a downdate losing positive-definiteness
  /// says so. Aborts like construction if the new snapshot exceeds the
  /// max_nodes cap — pre-check with Feasible().
  using ErEstimator::RebindGraph;
  bool RebindGraph(const GraphT& graph, const GraphEpoch& epoch) override;

  std::uint64_t IncrementalRebinds() const override {
    return incremental_rebinds_.load(std::memory_order_relaxed);
  }

  /// True iff the dense factorization would fit under `max_nodes`.
  static bool Feasible(const GraphT& graph, NodeId max_nodes = 8192) {
    return graph.NumNodes() <= max_nodes;
  }

 private:
  using Base = SessionCachedEstimator<GraphT, NodeId, ExactColumn>;
  using Base::graph_;
  using Base::session_;

  // Clone constructor: adopts the shared factorization and its
  // epoch-keyed holder; the session cache starts off (per-worker state).
  ExactEstimatorT(const ExactEstimatorT& other)
      : Base(*other.graph_),
        max_nodes_(other.max_nodes_),
        factor_(other.factor_),
        shared_factor_(other.shared_factor_) {}

  // One epoch's shared factor plus its provenance (full rebuild vs
  // rank-k update) — adopters read the flag into their rebind counters.
  struct FactorEntry {
    std::shared_ptr<const CholeskyFactor> factor;
    bool incremental = false;
  };

  static std::shared_ptr<const CholeskyFactor> BuildFactor(
      const GraphT& graph, NodeId max_nodes);

  /// The previous factor updated to `after` by rank-1 edge passes, or
  /// null when the crossover heuristic (or a failed downdate) demands
  /// the full rebuild. `before` is the graph the factor was built for.
  static std::shared_ptr<const CholeskyFactor> TryIncrementalFactor(
      const CholeskyFactor& prev, const GraphT& before, const GraphT& after,
      std::span<const NodeId> touched);

  /// M⁻¹ e_node — from the session cache when enabled (solved on a
  /// miss), else into `scratch`. The returned pointer stays valid across
  /// one more ColumnFor call (list-backed). A solve is charged to
  /// `stats`.
  const ExactColumn* ColumnFor(NodeId node, ExactColumn* scratch,
                               QueryStats* stats);
  /// Solves M⁻¹ e_node and charges the solve to `stats`.
  ExactColumn SolveColumn(NodeId node, QueryStats* stats) const;

  NodeId max_nodes_ = 8192;
  std::shared_ptr<const CholeskyFactor> factor_;
  std::shared_ptr<EpochShared<FactorEntry>> shared_factor_;
  std::atomic<std::uint64_t> incremental_rebinds_{0};
};

/// The two stacks, by their historical names.
using ExactEstimator = ExactEstimatorT<UnitWeight>;
using WeightedExactEstimator = ExactEstimatorT<EdgeWeight>;

extern template class ExactEstimatorT<UnitWeight>;
extern template class ExactEstimatorT<EdgeWeight>;

}  // namespace geer

#endif  // GEER_CORE_EXACT_H_
