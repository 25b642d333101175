// Effective-resistance embeddings: the library's one Spielman–Srivastava
// sketch [62].
//
// One preprocessing pass (k Laplacian solves, k = ⌈24 ln n / ε²⌉) gives
// every node a k-dimensional coordinate vector z_v with
//     r(s, t) ≈ ‖z_s − z_t‖²   (1 ± ε relative error w.h.p.)
// The RP baseline (core/rp.h) answers its pairwise queries from this
// table; the same table turns single-source ER (one O(nk) scan), top-k
// most-similar-node queries, and bulk edge-ER sweeps (for
// sparsification) into dense vector arithmetic, over both unweighted
// and weighted (conductance) graphs.

#ifndef GEER_EMBED_ER_EMBEDDING_H_
#define GEER_EMBED_ER_EMBEDDING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "linalg/dense.h"
#include "graph/weighted_graph.h"

namespace geer {

/// Options controlling embedding construction.
struct ErEmbeddingOptions {
  /// Relative error target ε; drives k = ⌈24 ln n / ε²⌉ when
  /// `dimensions` is 0.
  double epsilon = 0.3;

  /// Explicit projection dimension (0 = derive from ε). Lower values
  /// trade accuracy for memory and speed.
  int dimensions = 0;

  /// Seed for the ±1/√k projection.
  std::uint64_t seed = 1;

  /// Memory cap for the n×k table; construction aborts beyond it.
  std::uint64_t max_bytes = 4ull << 30;
};

/// A (node, effective-resistance) pair returned by similarity queries.
struct ErNeighbor {
  NodeId node = 0;
  double er = 0.0;

  friend bool operator==(const ErNeighbor&, const ErNeighbor&) = default;
};

/// Immutable ER embedding of a fixed graph. Rows (node coordinates) are
/// stored contiguously, so single-source scans stream linearly.
class ErEmbedding {
 public:
  /// Embeds an unweighted graph. Aborts unless Feasible().
  explicit ErEmbedding(const Graph& graph, ErEmbeddingOptions options = {});

  /// Embeds a weighted (conductance) graph: the projected matrix is
  /// Q W^{1/2} B L_w†, so ‖z_s − z_t‖² estimates the weighted ER.
  explicit ErEmbedding(const WeightedGraph& graph,
                       ErEmbeddingOptions options = {});

  /// Number of embedded nodes.
  NodeId NumNodes() const { return num_nodes_; }

  /// Projection dimension k.
  int Dimensions() const { return k_; }

  /// The k coordinates of node v.
  std::span<const double> Coordinates(NodeId v) const {
    GEER_DCHECK(v < num_nodes_);
    return {table_.data() + static_cast<std::size_t>(v) * k_,
            static_cast<std::size_t>(k_)};
  }

  /// Approximate r(s, t) = ‖z_s − z_t‖². O(k).
  double PairwiseEr(NodeId s, NodeId t) const;

  /// Approximate ER from `s` to every node; out[v] = r̂(s, v) (0 at s).
  /// O(nk), one linear pass over the table.
  void SingleSource(NodeId s, Vector* out) const;

  /// The `count` nodes most similar to `s` (smallest ER, excluding `s`),
  /// sorted ascending by ER with node id as tie-break. O(nk + n log c).
  std::vector<ErNeighbor> TopKNearest(NodeId s, std::size_t count) const;

  /// Approximate ER of every edge of `graph` — the graph this embedding
  /// was built from — in the order of Graph::Edges(). Feeds the spectral
  /// sparsifier. O(mk).
  std::vector<double> AllEdgeEr(const Graph& graph) const;
  std::vector<double> AllEdgeEr(const WeightedGraph& graph) const;

  /// The k implied by `options` for an n-node graph, saturated at
  /// INT_MAX; Feasible() rejects any derived k above INT_MAX.
  static int DeriveDimensions(NodeId num_nodes,
                              const ErEmbeddingOptions& options);

  /// Bytes of the n×k table `options` implies, saturated at UINT64_MAX.
  static std::uint64_t TableBytes(NodeId num_nodes,
                                  const ErEmbeddingOptions& options);

  /// True iff k fits an int and the table fits options.max_bytes
  /// (pre-construction check). Decided in floating point before k is
  /// converted, so a tiny ε reads as infeasible, never as a wrapped k.
  static bool Feasible(NodeId num_nodes, const ErEmbeddingOptions& options);

 private:
  NodeId num_nodes_ = 0;
  int k_ = 0;
  std::vector<double> table_;  // row-major n×k
};

}  // namespace geer

#endif  // GEER_EMBED_ER_EMBEDDING_H_
