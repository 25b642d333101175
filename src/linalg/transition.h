// The random-walk (transition) operator P = D_w^{-1} A_w applied to
// vectors, generic over the weight policy (graph/weight_policy.h), with
// two execution modes:
//
//  * sparse "scatter" mode — iterates only the support of x; cost
//    proportional to Σ_{v∈supp(x)} d(v), exactly the cost model GEER's
//    greedy switch rule (Eq. 17) charges per SMM iteration;
//  * dense "gather" mode — one cache-friendly sweep over the CSR arrays,
//    the mode the paper credits for SMM's locality on saturated iterates.
//
// ApplyAuto picks the mode from the support size, and reports the support
// degree-sum the greedy rule needs and the iterate's top-two entries that
// bound AMC's ψ (Eq. 9) — so GEER never pays an extra pass for either.
// The top-two is read over the support in scatter mode (off-support
// entries are zeros, and the top-two of non-negative entries is an order
// statistic, so this equals TopTwo(values) exactly) and inside the sweep
// in gather mode.
//
// The UnitWeight instantiation multiplies by the constexpr arc weight 1,
// which constant-folds away: it is the paper's unweighted P = D^{-1} A
// with no weight loads on the hot path. The EdgeWeight instantiation is
// the weighted P with (Px)(u) = Σ_{v∈N(u)} w(u,v)/w(u)·x(v). The cost
// model is identical in both modes — arc traversals — because Eq. 17
// charges memory touches, which weights do not add to.

#ifndef GEER_LINALG_TRANSITION_H_
#define GEER_LINALG_TRANSITION_H_

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/weight_policy.h"
#include "linalg/dense.h"
#include "util/check.h"

namespace geer {

class ThreadTeam;

/// Applies P = D_w^{-1} A_w. Stateless w.r.t. queries; owns scratch
/// buffers so repeated applications do not allocate.
template <WeightPolicy WP>
class TransitionOperatorT {
 public:
  using GraphT = typename WP::GraphT;

  explicit TransitionOperatorT(const GraphT& graph)
      : graph_(&graph),
        scratch_(graph.NumNodes(), 0.0),
        touched_flag_(graph.NumNodes(), 0) {
    touched_.reserve(graph.NumNodes());
  }
  // Stores a pointer to `graph`; a temporary would dangle.
  explicit TransitionOperatorT(GraphT&&) = delete;

  /// A vector together with its support (list of indices of non-zeros).
  /// The support list may over-approximate (contain zero entries) but
  /// never misses a non-zero.
  struct SparseVector {
    Vector values;                ///< dense storage, length n
    std::vector<NodeId> support;  ///< indices with (possibly) non-zero value
    bool dense = false;           ///< true once support tracking stopped

    /// Σ_{v∈supp} d(v): the paper's per-iteration SMM cost (Eq. 17 LHS).
    std::uint64_t support_degree_sum = 0;

    /// TopTwo(values), kept current by InitOneHot and ApplyAuto.
    std::pair<double, double> top_two{0.0, 0.0};

    /// Initializes to the one-hot vector e_v.
    void InitOneHot(NodeId v, const GraphT& graph) {
      values.assign(graph.NumNodes(), 0.0);
      GEER_CHECK(v < graph.NumNodes());
      values[v] = 1.0;
      support.assign(1, v);
      dense = false;
      support_degree_sum = graph.Degree(v);
      top_two = {1.0, 0.0};
    }
  };

  /// x ← P·x, choosing scatter vs gather from x's density, updating the
  /// support metadata and top_two. Returns the number of arc traversals
  /// performed.
  std::uint64_t ApplyAuto(SparseVector* x);

  /// Dense gather: y(u) = (1/w(u)) Σ_{v∈N(u)} w(u,v)·x(v). Always touches
  /// all 2m arcs. `y` is resized to n. Returns TopTwo(*y), folded in the
  /// same sweep.
  std::pair<double, double> ApplyDense(const Vector& x, Vector* y) const;

  /// Fraction of nodes in the support above which ApplyAuto switches to
  /// dense mode permanently.
  static constexpr double kDenseThreshold = 0.25;

  const GraphT& graph() const { return *graph_; }

 private:
  // Scatter from the support of x into scratch_, producing the new support.
  void ApplySparse(SparseVector* x);

  const GraphT* graph_;
  Vector scratch_;
  std::vector<NodeId> touched_;
  std::vector<char> touched_flag_;
};

/// Applies the symmetrically normalized adjacency
/// N = D_w^{-1/2} A_w D_w^{-1/2} (similar to P, hence same spectrum) —
/// the operator the λ preprocessing runs Lanczos on.
///
/// (N·x)(u) = w(u)^{-1/2} · Σ_{v∈N(u)} (w(u,v)·x(v))·w(v)^{-1/2}, summed
/// in CSR order. Apply visits the rows in degree order (a counting-sort
/// permutation built once, holding each row's CSR start, degree and
/// w(u)^{-1/2} so a row costs no scattered loads) and sums four rows of
/// similar degree in lockstep, so four independent addition chains
/// overlap; each row still adds its own arcs in CSR order, so every y(u)
/// has the bits of the row-by-row loop. Under UnitWeight the arc factor
/// is an exact 1, so Apply scales x ⊙ w^{−1/2} once per call into a
/// scratch vector instead of once per arc — the same products, one
/// gather per arc instead of two.
///
/// Given a ThreadTeam, Apply splits both passes into chunks the team
/// runs in parallel: the pre-scale over equal runs of node ids, then the
/// rows over runs of whole 4-row groups in degree order with about equal
/// arc counts. A row is summed by one thread exactly as above, so y has
/// the same bits for any team size and whichever thread runs a chunk
/// (linalg/spectral.h says which λ runs pass a team). The scratch vector
/// and the cached chunk split make Apply unsafe to call concurrently on
/// one instance, with or without a team.
template <WeightPolicy WP>
class NormalizedAdjacencyOperatorT {
 public:
  using GraphT = typename WP::GraphT;

  explicit NormalizedAdjacencyOperatorT(const GraphT& graph);
  // Stores a pointer to `graph`; a temporary would dangle.
  explicit NormalizedAdjacencyOperatorT(GraphT&&) = delete;

  /// y ← N·x (dense), on `team` when it is given.
  void Apply(const Vector& x, Vector* y, ThreadTeam* team = nullptr) const;

  std::size_t Dim() const { return inv_sqrt_weight_.size(); }

  /// The known top eigenvector of N: entries ∝ √w(v), unit-normalized.
  const Vector& TopEigenvector() const { return top_eigenvector_; }

 private:
  // Chunks per team thread: enough that a thread which is descheduled
  // mid-call holds up only a small share of the rows.
  static constexpr std::size_t kChunksPerThread = 4;

  // z(v) = x(v)·w(v)^{-1/2} for v in [begin, end) (UnitWeight only).
  void ScaleRange(const Vector& x, NodeId begin, NodeId end) const;
  // y(row) for the rows rows_by_degree_[begin, end), four at a time.
  void ApplyRows(const Vector& x, double* out, NodeId begin,
                 NodeId end) const;
  // Sets chunk_starts_ to `chunks` runs of whole 4-row groups of
  // rows_by_degree_ with about equal arc counts (some may be empty).
  void SplitRows(std::size_t chunks) const;

  const GraphT* graph_;
  Vector inv_sqrt_weight_;
  Vector top_eigenvector_;
  /// One row of N, in Apply's visiting order.
  struct DegreeRow {
    std::uint64_t begin;     ///< offset of the row's first arc
    double inv_sqrt_weight;  ///< w(row)^{-1/2}
    NodeId degree;
    NodeId row;
  };
  std::vector<DegreeRow> rows_by_degree_;  ///< stable, ascending degree
  mutable Vector scaled_x_;  ///< x ⊙ w^{−1/2} (UnitWeight only)
  /// Chunk c of a team Apply covers rows_by_degree_[chunk_starts_[c],
  /// chunk_starts_[c + 1]); kept for the last chunk count used.
  mutable std::vector<NodeId> chunk_starts_;
};

/// The two stacks, by their historical names.
using TransitionOperator = TransitionOperatorT<UnitWeight>;
using WeightedTransitionOperator = TransitionOperatorT<EdgeWeight>;
using NormalizedAdjacencyOperator = NormalizedAdjacencyOperatorT<UnitWeight>;
using NormalizedWeightedAdjacencyOperator =
    NormalizedAdjacencyOperatorT<EdgeWeight>;

// Compiled once in transition.cc for both policies.
extern template class TransitionOperatorT<UnitWeight>;
extern template class TransitionOperatorT<EdgeWeight>;
extern template class NormalizedAdjacencyOperatorT<UnitWeight>;
extern template class NormalizedAdjacencyOperatorT<EdgeWeight>;

}  // namespace geer

#endif  // GEER_LINALG_TRANSITION_H_
