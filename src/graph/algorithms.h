// Structural graph algorithms needed to normalize inputs to the ergodicity
// assumptions of the paper (connected + non-bipartite) and by tests.

#ifndef GEER_GRAPH_ALGORITHMS_H_
#define GEER_GRAPH_ALGORITHMS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "graph/weighted_graph.h"

namespace geer {

/// True iff the graph is connected (the empty graph counts as connected,
/// a single node as connected).
bool IsConnected(const Graph& graph);

/// True iff the graph is bipartite (2-colorable). Bipartite graphs have
/// λ_n = −1, making the truncated-walk length ℓ of Eq. (5)/(6) unbounded.
bool IsBipartite(const Graph& graph);

/// Connected-component label per node; labels are dense in [0, #components).
std::vector<std::uint32_t> ConnectedComponents(const Graph& graph);

/// Extracts the largest connected component with nodes relabelled densely.
/// Ties broken toward the component containing the smallest node id.
Graph LargestConnectedComponent(const Graph& graph);

/// Returns a graph guaranteed non-bipartite: if `graph` is bipartite, adds
/// one edge closing an odd cycle (between two same-color nodes at minimal
/// id); otherwise returns the input unchanged. The graph must have ≥ 3
/// nodes and at least one edge for a fix to exist.
Graph EnsureNonBipartite(const Graph& graph);

/// BFS hop distances from `source` (`UINT32_MAX` for unreachable nodes).
std::vector<std::uint32_t> BfsDistances(const Graph& graph, NodeId source);

/// Graph diameter estimated by a double-sweep BFS (exact on trees; a lower
/// bound in general). Requires a connected, non-empty graph.
std::uint32_t ApproxDiameter(const Graph& graph);

/// The trees that hang off a graph's 2-core. Repeatedly deleting a
/// degree-1 node leaves the 2-core; every deleted node sits in a tree
/// attached to one surviving node, its core root (in a component that is
/// a tree the last node left is the root). Every tree edge is a bridge,
/// so by the series law (Doyle & Snell 1984) a path through a tree adds
/// its edges' resistances exactly:
///
///   r(s, t) = R(s) + r(root(s), root(t)) + R(t)       different roots,
///   r(s, t) = resistance of the tree path s … t        same root,
///
/// where R(v) is the series resistance from v up to its root: hops under
/// unit weights, Σ 1/w(e) under conductances. Built in O(n + m) by one
/// stack peel. Immutable after Build, so clones read it concurrently.
class PendantForest {
 public:
  /// A query pair reduced to the core: r(s, t) = offset + r(a, b), with
  /// a = b (and r(a, b) = 0) when s and t hang off the same root.
  struct Reduction {
    NodeId a = 0;
    NodeId b = 0;
    double offset = 0.0;
  };

  /// Peels `graph`. Null when no node has degree 1 — then there is
  /// nothing to reduce and callers skip the forest altogether.
  static std::shared_ptr<const PendantForest> Build(const Graph& graph);
  static std::shared_ptr<const PendantForest> Build(
      const WeightedGraph& graph);

  /// Reduces (s, t) to its core pair. With different roots that is
  /// (root(s), root(t)) with offset R(s) + R(t); with the same root both
  /// sides walk their parents up to the lowest common ancestor, summing
  /// edge by edge, and a = b is that ancestor. The offset is bitwise
  /// symmetric: Reduce(t, s) swaps a and b and keeps it.
  Reduction Reduce(NodeId s, NodeId t) const;

  NodeId NumNodes() const { return static_cast<NodeId>(root_.size()); }
  /// Nodes outside the 2-core.
  NodeId NumPeeled() const { return num_peeled_; }
  /// v itself for a core node.
  NodeId Root(NodeId v) const { return root_[v]; }
  /// v itself for a core node.
  NodeId Parent(NodeId v) const { return parent_[v]; }
  /// Hops from v up to its root.
  std::uint32_t Depth(NodeId v) const { return depth_[v]; }
  /// Series resistance from v up to its root, R(v).
  double Resistance(NodeId v) const {
    return dist_.empty() ? static_cast<double>(depth_[v]) : dist_[v];
  }

 private:
  /// The peel behind both Builds: `weights` is the CSR weight array, or
  /// null for unit weights.
  template <typename G>
  static std::shared_ptr<const PendantForest> Peel(const G& graph,
                                                   const double* weights);

  /// Resistance of the edge from peeled v to its parent.
  double EdgeResistance(NodeId v) const {
    return edge_r_.empty() ? 1.0 : edge_r_[v];
  }

  std::vector<NodeId> root_;
  std::vector<NodeId> parent_;
  std::vector<std::uint32_t> depth_;
  // Conductance graphs only; under unit weights both are implied by
  // depth_ (every edge is 1), which keeps the forest at 12 bytes a node.
  std::vector<double> dist_;
  std::vector<double> edge_r_;
  NodeId num_peeled_ = 0;
};

}  // namespace geer

#endif  // GEER_GRAPH_ALGORITHMS_H_
