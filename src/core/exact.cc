#include "core/exact.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/check.h"

namespace geer {

template <WeightPolicy WP>
std::shared_ptr<const CholeskyFactor> ExactEstimatorT<WP>::BuildFactor(
    const GraphT& graph, NodeId max_nodes) {
  const NodeId n = graph.NumNodes();
  GEER_CHECK_GE(n, 2u);
  GEER_CHECK_LE(n, max_nodes)
      << "EXACT needs an n×n dense factorization; " << n
      << " nodes exceeds the memory stand-in cap of " << max_nodes;
  const double shift = 1.0 / static_cast<double>(n);
  Matrix m(n, n, shift);
  const auto& offsets = graph.Offsets();
  const auto& adj = graph.NeighborArray();
  for (NodeId u = 0; u < n; ++u) {
    m(u, u) += WP::NodeWeight(graph, u);
    for (std::uint64_t k = offsets[u]; k < offsets[u + 1]; ++k) {
      m(u, adj[k]) -= WP::ArcWeight(graph, k);
    }
  }
  auto factor = CholeskyFactor::Factorize(m);
  GEER_CHECK(factor.has_value())
      << "augmented Laplacian not PD — is the graph connected?";
  return std::make_shared<const CholeskyFactor>(std::move(*factor));
}

namespace {

// One changed edge between two epochs: weight delta on {u, v}, u < v.
struct EdgeDelta {
  NodeId u;
  NodeId v;
  double delta;
};

// Merge-diffs every touched row of the old and new CSR (rows are sorted
// by neighbor) and emits each changed edge once via the u < v filter —
// both endpoints of a changed edge are in `touched` by the GraphEpoch
// contract, so no change escapes the scan. O(Σ deg(touched)). Returns
// false once more than `max_deltas` edges changed (caller should
// refactorize from scratch instead).
template <WeightPolicy WP>
bool DiffTouchedEdges(const typename WP::GraphT& before,
                      const typename WP::GraphT& after,
                      std::span<const NodeId> touched,
                      std::size_t max_deltas, std::vector<EdgeDelta>* out) {
  out->clear();
  const auto& boff = before.Offsets();
  const auto& badj = before.NeighborArray();
  const auto& aoff = after.Offsets();
  const auto& aadj = after.NeighborArray();
  for (const NodeId u : touched) {
    std::uint64_t i = boff[u];
    std::uint64_t j = aoff[u];
    const std::uint64_t iend = boff[u + 1];
    const std::uint64_t jend = aoff[u + 1];
    while (i < iend || j < jend) {
      const NodeId bv = i < iend ? badj[i] : ~NodeId{0};
      const NodeId av = j < jend ? aadj[j] : ~NodeId{0};
      NodeId v;
      double delta;
      if (bv < av) {  // edge removed
        v = bv;
        delta = -WP::ArcWeight(before, i);
        ++i;
      } else if (av < bv) {  // edge inserted
        v = av;
        delta = WP::ArcWeight(after, j);
        ++j;
      } else {  // present in both; possibly reweighted
        v = bv;
        delta = WP::ArcWeight(after, j) - WP::ArcWeight(before, i);
        ++i;
        ++j;
      }
      if (u < v && delta != 0.0) {
        if (out->size() >= max_deltas) return false;
        out->push_back({u, v, delta});
      }
    }
  }
  return true;
}

}  // namespace

template <WeightPolicy WP>
std::shared_ptr<const CholeskyFactor> ExactEstimatorT<WP>::TryIncrementalFactor(
    const CholeskyFactor& prev, const GraphT& before, const GraphT& after,
    std::span<const NodeId> touched) {
  const NodeId n = after.NumNodes();
  if (before.NumNodes() != n || prev.Dim() != n) return nullptr;
  // Crossover: one rank-1 pass costs ~n²/2 flops vs n³/6 for a fresh
  // factorization, so beyond ~n/4 changed edges the full rebuild wins
  // (margin for the copy + diff overhead).
  const std::size_t max_deltas = std::max<std::size_t>(4, n / 4);
  std::vector<EdgeDelta> deltas;
  if (!DiffTouchedEdges<WP>(before, after, touched, max_deltas, &deltas)) {
    return nullptr;
  }
  auto next = std::make_shared<CholeskyFactor>(prev);
  // A weight change δ on {u,v} moves the augmented Laplacian by
  // δ·(e_u − e_v)(e_u − e_v)ᵀ (diagonal degrees and off-diagonals move
  // together). Increases first: M stays SPD throughout, so only the
  // downdates can fail numerically.
  Vector x(n, 0.0);
  const auto apply = [&](const EdgeDelta& d, bool updates_pass) {
    const double mag = std::sqrt(std::abs(d.delta));
    x[d.u] = mag;
    x[d.v] = -mag;
    const bool ok =
        updates_pass ? (next->RankOneUpdate(x), true) : next->RankOneDowndate(x);
    x[d.u] = 0.0;
    x[d.v] = 0.0;
    return ok;
  };
  for (const EdgeDelta& d : deltas) {
    if (d.delta > 0.0 && !apply(d, /*updates_pass=*/true)) return nullptr;
  }
  for (const EdgeDelta& d : deltas) {
    if (d.delta < 0.0 && !apply(d, /*updates_pass=*/false)) return nullptr;
  }
  return next;
}

template <WeightPolicy WP>
ExactEstimatorT<WP>::ExactEstimatorT(const GraphT& graph, ErOptions options,
                                     NodeId max_nodes)
    : Base(graph), max_nodes_(max_nodes) {
  ValidateOptions(options);
  factor_ = BuildFactor(graph, max_nodes);
  shared_factor_ = std::make_shared<EpochShared<FactorEntry>>(
      std::make_shared<const FactorEntry>(FactorEntry{factor_, false}));
}

template <WeightPolicy WP>
bool ExactEstimatorT<WP>::RebindGraph(const GraphT& graph,
                                      const GraphEpoch& epoch) {
  const auto entry = shared_factor_->GetOrUpdate(
      epoch.epoch,
      [this, &graph, &epoch](const std::shared_ptr<const FactorEntry>& prev)
          -> std::shared_ptr<const FactorEntry> {
        // graph_ still names the PREVIOUS binding here — the first
        // rebinder of the epoch diffs old vs new CSR rows to derive the
        // rank-k update. Opt-in: the updated factor drifts from a fresh
        // factorization in the last bits.
        if (epoch.incremental && !epoch.resized && prev != nullptr &&
            prev->factor != nullptr) {
          auto updated = TryIncrementalFactor(*prev->factor, *graph_, graph,
                                              epoch.touched);
          if (updated != nullptr) {
            return std::make_shared<const FactorEntry>(
                FactorEntry{std::move(updated), true});
          }
        }
        return std::make_shared<const FactorEntry>(
            FactorEntry{BuildFactor(graph, max_nodes_), false});
      });
  factor_ = entry->factor;
  if (entry->incremental) {
    incremental_rebinds_.fetch_add(1, std::memory_order_relaxed);
  }
  graph_ = &graph;
  // Columns are functions of the whole factorization: the session
  // flushes wholesale; landmark columns re-warm (and re-pin) lazily.
  if (session_ != nullptr) session_->Rebind(epoch);
  return true;
}

template <WeightPolicy WP>
ExactColumn ExactEstimatorT<WP>::SolveColumn(NodeId node) const {
  Vector b(graph_->NumNodes(), 0.0);
  b[node] = 1.0;
  // M⁻¹ e_node = L† e_node + 𝟙/n (M⁻¹𝟙 = 𝟙); the rank-one part cancels
  // when two columns are differenced, so the combination is exact.
  return {factor_->Solve(b)};
}

template <WeightPolicy WP>
const ExactColumn* ExactEstimatorT<WP>::ColumnFor(NodeId node,
                                                  ExactColumn* scratch) {
  if (session_ == nullptr) {
    *scratch = SolveColumn(node);
    return scratch;
  }
  return session_->GetOrCreate(node, [&] { return SolveColumn(node); });
}

template <WeightPolicy WP>
QueryStats ExactEstimatorT<WP>::EstimateWithStats(NodeId s, NodeId t) {
  GEER_CHECK(s < graph_->NumNodes());
  GEER_CHECK(t < graph_->NumNodes());
  QueryStats stats;
  if (s == t) return stats;
  const NodeId u = std::min(s, t);
  const NodeId v = std::max(s, t);
  ExactColumn scratch_u;
  ExactColumn scratch_v;
  const Vector& yu = ColumnFor(u, &scratch_u)->y;
  const Vector& yv = ColumnFor(v, &scratch_v)->y;
  // r(u,v) = (e_u − e_v)ᵀ M⁻¹ (e_u − e_v), combined column-wise in fixed
  // canonical order — bitwise symmetric and cache-independent.
  stats.value = (yu[u] - yu[v]) - (yv[u] - yv[v]);
  if (session_ != nullptr) session_->Sweep();
  return stats;
}

template class ExactEstimatorT<UnitWeight>;
template class ExactEstimatorT<EdgeWeight>;

}  // namespace geer
