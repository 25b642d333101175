#include "linalg/transition.h"

#include <cmath>

#include "util/check.h"

namespace geer {

template <WeightPolicy WP>
std::uint64_t TransitionOperatorT<WP>::ApplyAuto(SparseVector* x) {
  const NodeId n = graph_->NumNodes();
  GEER_CHECK_EQ(x->values.size(), static_cast<std::size_t>(n));
  if (!x->dense &&
      x->support.size() > static_cast<std::size_t>(kDenseThreshold * n)) {
    x->dense = true;
  }
  if (x->dense) {
    x->top_two = ApplyDense(x->values, &scratch_);
    x->values.swap(scratch_);
    x->support.clear();
    x->support_degree_sum = graph_->NumArcs();
    return graph_->NumArcs();
  }
  const std::uint64_t work = x->support_degree_sum;
  ApplySparse(x);
  return work;
}

template <WeightPolicy WP>
std::pair<double, double> TransitionOperatorT<WP>::ApplyDense(
    const Vector& x, Vector* y) const {
  const NodeId n = graph_->NumNodes();
  GEER_CHECK_EQ(x.size(), static_cast<std::size_t>(n));
  y->assign(n, 0.0);
  const std::uint64_t* offsets = graph_->Offsets().data();
  const NodeId* adj = graph_->NeighborArray().data();
  const auto arcs = WP::Arcs(*graph_);
  // TopTwo's own start, so the fold equals TopTwo(*y) for any x.
  TopTwoFold top{-1e300, -1e300};
  for (NodeId u = 0; u < n; ++u) {
    double acc = 0.0;
    for (std::uint64_t k = offsets[u]; k < offsets[u + 1]; ++k) {
      // UnitWeight: the arc view yields a constexpr 1 that folds away.
      acc += arcs[k] * x[adj[k]];
    }
    const double weight = WP::NodeWeight(*graph_, u);
    const double yu = weight == 0.0 ? 0.0 : acc / weight;
    (*y)[u] = yu;
    top.Add(yu);
  }
  if (n == 1) top.max2 = 0.0;
  return top.Get();
}

template <WeightPolicy WP>
void TransitionOperatorT<WP>::ApplySparse(SparseVector* x) {
  // Scatter: for v in supp(x), for u in N(v): y(u) += w(v,u)·x(v); then
  // divide each touched u by w(u). Weight symmetry makes the scatter view
  // (over v's arcs) equal the gather view (over u's arcs). New support =
  // N(supp(x)).
  touched_.clear();
  // Raw pointers and the policy's arc view stay in registers across the
  // opaque touched_.push_back call below; vector-backed accesses would be
  // reloaded every iteration.
  const std::uint64_t* offsets = graph_->Offsets().data();
  const NodeId* adj = graph_->NeighborArray().data();
  const auto arcs = WP::Arcs(*graph_);
  for (NodeId v : x->support) {
    const double xv = x->values[v];
    if (xv == 0.0) continue;
    const std::uint64_t row_end = offsets[v + 1];
    for (std::uint64_t k = offsets[v]; k < row_end; ++k) {
      const NodeId u = adj[k];
      if (!touched_flag_[u]) {
        touched_flag_[u] = 1;
        touched_.push_back(u);
        scratch_[u] = 0.0;
      }
      scratch_[u] += arcs[k] * xv;
    }
  }
  // Clear old support entries in the destination, then commit, folding
  // the top-two over the new support (the {0, 0} start stands in for the
  // zeros off it).
  for (NodeId v : x->support) x->values[v] = 0.0;
  std::uint64_t degree_sum = 0;
  TopTwoFold top{0.0, 0.0};
  for (NodeId u : touched_) {
    const double xu = scratch_[u] / WP::NodeWeight(*graph_, u);
    x->values[u] = xu;
    top.Add(xu);
    touched_flag_[u] = 0;
    degree_sum += graph_->Degree(u);
  }
  x->support.assign(touched_.begin(), touched_.end());
  x->support_degree_sum = degree_sum;
  x->top_two = top.Get();
}

template <WeightPolicy WP>
NormalizedAdjacencyOperatorT<WP>::NormalizedAdjacencyOperatorT(
    const GraphT& graph)
    : graph_(&graph),
      inv_sqrt_weight_(graph.NumNodes(), 0.0),
      top_eigenvector_(graph.NumNodes(), 0.0) {
  double norm_sq = 0.0;
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    const double w = WP::NodeWeight(graph, v);
    GEER_CHECK(w > 0.0) << "isolated node " << v
                        << " — graph must be connected";
    inv_sqrt_weight_[v] = 1.0 / std::sqrt(w);
    top_eigenvector_[v] = std::sqrt(w);
    norm_sq += w;
  }
  const double inv_norm = 1.0 / std::sqrt(norm_sq);
  for (double& e : top_eigenvector_) e *= inv_norm;
}

template <WeightPolicy WP>
void NormalizedAdjacencyOperatorT<WP>::Apply(const Vector& x,
                                             Vector* y) const {
  const NodeId n = graph_->NumNodes();
  GEER_CHECK_EQ(x.size(), static_cast<std::size_t>(n));
  y->resize(n);  // Every entry is written below.
  const std::uint64_t* offsets = graph_->Offsets().data();
  const NodeId* adj = graph_->NeighborArray().data();
  const auto arcs = WP::Arcs(*graph_);
  for (NodeId u = 0; u < n; ++u) {
    double acc = 0.0;
    for (std::uint64_t k = offsets[u]; k < offsets[u + 1]; ++k) {
      const NodeId v = adj[k];
      acc += arcs[k] * x[v] * inv_sqrt_weight_[v];
    }
    (*y)[u] = acc * inv_sqrt_weight_[u];
  }
}

template class TransitionOperatorT<UnitWeight>;
template class TransitionOperatorT<EdgeWeight>;
template class NormalizedAdjacencyOperatorT<UnitWeight>;
template class NormalizedAdjacencyOperatorT<EdgeWeight>;

}  // namespace geer
