// Weighted extension substrate: an immutable CSR graph whose edges carry
// positive weights (conductances, in the electrical interpretation the
// paper's introduction motivates). The paper (Yang & Tang, SIGMOD'23)
// treats unweighted graphs; every quantity in its analysis generalizes by
// replacing the degree d(v) with the strength w(v) = Σ_{u∈N(v)} w(v,u):
//
//   P(v,u)   = w(v,u)/w(v)            (weighted random walk)
//   π(v)     = w(v)/(2W)              (stationary distribution)
//   r_ℓ(s,t) = Σ_i [p_i(s,s)/w(s) + p_i(t,t)/w(t)
//                   − p_i(s,t)/w(t) − p_i(t,s)/w(s)]
//
// with W the total edge weight. Both graph types plug into the shared
// substrate through graph/weight_policy.h: the transition operator,
// spectral bounds, Laplacian solver and estimator bodies are templates
// over a weight policy, and the unit-weight instantiation keeps the
// unweighted hot paths free of weight lookups.

#ifndef GEER_GRAPH_WEIGHTED_GRAPH_H_
#define GEER_GRAPH_WEIGHTED_GRAPH_H_

#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "graph/graph.h"
#include "util/check.h"

namespace geer {

/// An undirected edge with a positive weight (conductance).
struct WeightedEdge {
  NodeId u = 0;
  NodeId v = 0;
  double weight = 1.0;

  friend bool operator==(const WeightedEdge&, const WeightedEdge&) = default;
};

/// Immutable undirected weighted graph in CSR form.
///
/// Each undirected edge {u, v} is stored as two arcs with equal weight.
/// Self-loops are disallowed; parallel edges are merged by summing weights
/// at build time (parallel resistors: conductances add). All weights are
/// strictly positive.
class WeightedGraph {
 public:
  /// An empty graph with zero nodes.
  WeightedGraph() = default;

  /// Constructs from prebuilt CSR arrays; prefer WeightedGraphBuilder.
  /// `offsets` has n+1 entries; `neighbors`/`weights` are parallel arrays
  /// with `neighbors[offsets[v]..offsets[v+1])` sorted per node.
  WeightedGraph(std::vector<std::uint64_t> offsets,
                std::vector<NodeId> neighbors, std::vector<double> weights);

  /// Number of nodes n.
  NodeId NumNodes() const { return static_cast<NodeId>(num_nodes_); }

  /// Number of undirected edges m.
  std::uint64_t NumEdges() const { return neighbors_.size() / 2; }

  /// Number of directed arcs (2m).
  std::uint64_t NumArcs() const { return neighbors_.size(); }

  /// Unweighted degree of v (neighbor count) — the arc-traversal cost unit
  /// of the SMM/GEER cost model, which counts memory touches, not weight.
  std::uint64_t Degree(NodeId v) const {
    GEER_DCHECK(v < num_nodes_);
    return offsets_[v + 1] - offsets_[v];
  }

  /// Strength w(v) = Σ_{u∈N(v)} w(v,u) — the weighted-degree that replaces
  /// d(v) throughout the paper's formulas.
  double Strength(NodeId v) const {
    GEER_DCHECK(v < num_nodes_);
    return strengths_[v];
  }

  /// Total edge weight W = Σ_{e∈E} w(e); Σ_v Strength(v) = 2W.
  double TotalWeight() const { return total_weight_; }

  /// Sorted neighbor list of node v.
  std::span<const NodeId> Neighbors(NodeId v) const {
    GEER_DCHECK(v < num_nodes_);
    return {neighbors_.data() + offsets_[v],
            neighbors_.data() + offsets_[v + 1]};
  }

  /// Weights parallel to Neighbors(v).
  std::span<const double> Weights(NodeId v) const {
    GEER_DCHECK(v < num_nodes_);
    return {weights_.data() + offsets_[v], weights_.data() + offsets_[v + 1]};
  }

  /// The k-th neighbor of v (0-based).
  NodeId NeighborAt(NodeId v, std::uint64_t k) const {
    GEER_DCHECK(v < num_nodes_);
    GEER_DCHECK(k < Degree(v));
    return neighbors_[offsets_[v] + k];
  }

  /// Weight of the edge {u, v}, or 0 if absent. O(log d(u)).
  double EdgeWeight(NodeId u, NodeId v) const;

  /// True iff the undirected edge {u, v} exists. O(log d(u)).
  bool HasEdge(NodeId u, NodeId v) const { return EdgeWeight(u, v) > 0.0; }

  /// All undirected edges with u < v, in lexicographic order.
  std::vector<WeightedEdge> Edges() const;

  /// Raw CSR arrays for linear-algebra kernels.
  const std::vector<std::uint64_t>& Offsets() const { return offsets_; }
  const std::vector<NodeId>& NeighborArray() const { return neighbors_; }
  const std::vector<double>& WeightArray() const { return weights_; }

  /// The unweighted skeleton (same adjacency, weights dropped) — used by
  /// structural checks (connectivity, bipartiteness) that ignore weights.
  Graph Skeleton() const;

 private:
  std::uint64_t num_nodes_ = 0;
  std::vector<std::uint64_t> offsets_ = {0};
  std::vector<NodeId> neighbors_;
  std::vector<double> weights_;
  std::vector<double> strengths_;
  double total_weight_ = 0.0;
};

/// Accumulates weighted edges and normalizes them into a WeightedGraph:
/// drops self-loops, merges parallel edges by summing weights, rejects
/// non-positive or non-finite weights.
class WeightedGraphBuilder {
 public:
  /// Declares at least `n` nodes (isolated nodes are allowed in the build
  /// but rejected by the estimators' connectivity requirement).
  explicit WeightedGraphBuilder(NodeId num_nodes = 0)
      : num_nodes_(num_nodes) {}

  /// Adds the undirected edge {u, v} with weight (conductance) `w > 0`.
  /// Self-loops (u == v) are silently dropped, matching GraphBuilder.
  /// Node ids extend the node count as needed; id 0xFFFFFFFF is reserved
  /// and aborts, as in GraphBuilder.
  WeightedGraphBuilder& AddEdge(NodeId u, NodeId v, double w);

  /// Number of nodes declared so far.
  NodeId NumNodes() const { return num_nodes_; }

  /// Builds the normalized graph. The builder is left in a valid empty
  /// state.
  WeightedGraph Build();

 private:
  NodeId num_nodes_ = 0;
  std::vector<std::tuple<NodeId, NodeId, double>> edges_;
};

/// Lifts an unweighted graph to the weighted representation with unit
/// conductances — on this input every weighted estimator must agree with
/// its unweighted counterpart exactly (tested in weighted_er_test).
WeightedGraph FromUnweighted(const Graph& graph);

}  // namespace geer

#endif  // GEER_GRAPH_WEIGHTED_GRAPH_H_
