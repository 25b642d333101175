#include "linalg/transition.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/thread_pool.h"

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
      top_eigenvector_(graph.NumNodes(), 0.0),
      rows_by_degree_(graph.NumNodes()) {
  const NodeId n = graph.NumNodes();
  double norm_sq = 0.0;
  std::uint64_t max_degree = 0;
  for (NodeId v = 0; v < n; ++v) {
    const double w = WP::NodeWeight(graph, v);
    GEER_CHECK(w > 0.0) << "isolated node " << v
                        << " — graph must be connected";
    inv_sqrt_weight_[v] = 1.0 / std::sqrt(w);
    top_eigenvector_[v] = std::sqrt(w);
    norm_sq += w;
    max_degree = std::max<std::uint64_t>(max_degree, graph.Degree(v));
  }
  const double inv_norm = 1.0 / std::sqrt(norm_sq);
  for (double& e : top_eigenvector_) e *= inv_norm;
  // Counting sort of the rows by degree (stable, so equal-degree rows
  // keep their id order). A degree is below n, so it fits a NodeId.
  std::vector<NodeId> start(max_degree + 2, 0);
  for (NodeId v = 0; v < n; ++v) ++start[graph.Degree(v) + 1];
  for (std::size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
  for (NodeId v = 0; v < n; ++v) {
    const NodeId degree = static_cast<NodeId>(graph.Degree(v));
    rows_by_degree_[start[degree]++] = {graph.Offsets()[v],
                                        inv_sqrt_weight_[v], degree, v};
  }
  if constexpr (!WP::kWeighted) scaled_x_.resize(n);
}

template <WeightPolicy WP>
void NormalizedAdjacencyOperatorT<WP>::Apply(const Vector& x, Vector* y,
                                             ThreadTeam* team) const {
  const NodeId n = graph_->NumNodes();
  GEER_CHECK_EQ(x.size(), static_cast<std::size_t>(n));
  y->resize(n);  // Every entry is written below.
  double* out = y->data();
  if (team == nullptr || team->size() == 1) {
    if constexpr (!WP::kWeighted) ScaleRange(x, 0, n);
    ApplyRows(x, out, 0, n);
    return;
  }
  const std::size_t chunks =
      static_cast<std::size_t>(team->size()) * kChunksPerThread;
  SplitRows(chunks);
  if constexpr (!WP::kWeighted) {
    team->ParallelFor(chunks, [&](int, std::size_t c) {
      ScaleRange(x, static_cast<NodeId>(std::uint64_t{n} * c / chunks),
                 static_cast<NodeId>(std::uint64_t{n} * (c + 1) / chunks));
    });
  }
  team->ParallelFor(chunks, [&](int, std::size_t c) {
    ApplyRows(x, out, chunk_starts_[c], chunk_starts_[c + 1]);
  });
}

template <WeightPolicy WP>
void NormalizedAdjacencyOperatorT<WP>::ScaleRange(const Vector& x,
                                                  NodeId begin,
                                                  NodeId end) const {
  const double* xs = x.data();
  const double* inv = inv_sqrt_weight_.data();
  double* zs = scaled_x_.data();
  for (NodeId v = begin; v < end; ++v) zs[v] = xs[v] * inv[v];
}

template <WeightPolicy WP>
void NormalizedAdjacencyOperatorT<WP>::ApplyRows(const Vector& x,
                                                 double* out, NodeId begin,
                                                 NodeId end) const {
  const NodeId* adj = graph_->NeighborArray().data();
  const double* inv = inv_sqrt_weight_.data();
  const double* xs = x.data();
  // The arc term (w(u,v)·x(v))·w(v)^{-1/2}; under UnitWeight 1·x(v) is
  // x(v) exactly, so the term is the pre-scaled z(v) = x(v)·w(v)^{-1/2}.
  const double* z = scaled_x_.data();
  const auto arcs = WP::Arcs(*graph_);
  const auto term = [&](std::uint64_t k) {
    const NodeId v = adj[k];
    if constexpr (WP::kWeighted) {
      return arcs[k] * xs[v] * inv[v];
    } else {
      return z[v];
    }
  };
  const auto row_tail = [&](std::uint64_t k, std::uint64_t end, double acc) {
    for (; k < end; ++k) acc += term(k);
    return acc;
  };
  const auto finish = [&](const DegreeRow& r, std::uint64_t done,
                          double acc) {
    out[r.row] = row_tail(r.begin + done, r.begin + r.degree, acc) *
                 r.inv_sqrt_weight;
  };
  const DegreeRow* rows = rows_by_degree_.data();
  NodeId i = begin;
  for (; i + 4 <= end; i += 4) {
    const DegreeRow& r0 = rows[i];
    const DegreeRow& r1 = rows[i + 1];
    const DegreeRow& r2 = rows[i + 2];
    const DegreeRow& r3 = rows[i + 3];
    // Ascending degrees: r0 is the shortest of the four rows.
    const std::uint64_t common = r0.degree;
    double a0 = 0.0;
    double a1 = 0.0;
    double a2 = 0.0;
    double a3 = 0.0;
    for (std::uint64_t t = 0; t < common; ++t) {
      a0 += term(r0.begin + t);
      a1 += term(r1.begin + t);
      a2 += term(r2.begin + t);
      a3 += term(r3.begin + t);
    }
    finish(r0, common, a0);
    finish(r1, common, a1);
    finish(r2, common, a2);
    finish(r3, common, a3);
  }
  for (; i < end; ++i) finish(rows[i], 0, 0.0);
}

template <WeightPolicy WP>
void NormalizedAdjacencyOperatorT<WP>::SplitRows(std::size_t chunks) const {
  if (chunk_starts_.size() == chunks + 1) return;
  const NodeId n = static_cast<NodeId>(rows_by_degree_.size());
  const std::uint64_t total = graph_->NumArcs();
  chunk_starts_.assign(chunks + 1, n);
  chunk_starts_[0] = 0;
  // Cut after the first 4-row group that takes the running arc count to
  // c/chunks of the total.
  std::uint64_t done = 0;
  std::size_t c = 1;
  for (NodeId i = 0; i < n && c < chunks;) {
    const NodeId group_end = std::min<NodeId>(i + 4, n);
    for (; i < group_end; ++i) done += rows_by_degree_[i].degree;
    while (c < chunks && done * chunks >= total * c) chunk_starts_[c++] = i;
  }
}

template class TransitionOperatorT<UnitWeight>;
template class TransitionOperatorT<EdgeWeight>;
template class NormalizedAdjacencyOperatorT<UnitWeight>;
template class NormalizedAdjacencyOperatorT<EdgeWeight>;

}  // namespace geer
