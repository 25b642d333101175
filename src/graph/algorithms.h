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

/// The subgraph induced by the nodes with keep[v] != 0, relabelled by
/// their rank among the kept nodes (*remap, n entries; meaningful only
/// at kept nodes). The map is monotone, so every copied row stays
/// sorted: one pass copies the kept rows straight into CSR, dropping the
/// arcs to nodes that are not kept (and, on a conductance graph,
/// carrying each arc's weight along). LargestConnectedComponent is the
/// case where no arc is dropped; PendantCore copies the 2-core with it.
template <typename G>
G InducedSubgraph(const G& graph, const std::vector<char>& keep,
                  std::vector<NodeId>* remap);

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

/// A graph's 2-core C as a graph of its own, with the forest that reduces
/// every query to it. C keeps the core nodes in G's order (the id map
/// G → C is monotone, so min/max of a pair is the same in both) and
/// copies their rows minus the tree arcs, in the graph's weight mode. No
/// current between two core nodes flows through a tree (each meets the
/// rest of G in one node), so r_C(a, b) = r_G(a, b) for core nodes a, b,
/// and an estimator can answer r_G(s, t) as the forest's offset plus
/// r_C of the reduced pair, walking and multiplying on C alone. Built in
/// O(n + m): the peel, then one InducedSubgraph copy. Immutable after
/// Build, so clones read it concurrently.
template <typename G>
class PendantCore {
 public:
  /// Null when no node has degree 1: then C would be G itself.
  static std::shared_ptr<const PendantCore> Build(const G& graph);

  const PendantForest& forest() const { return *forest_; }
  /// C, with ids in [0, CoreNodes().size()).
  const G& graph() const { return core_; }
  /// C id of v's root (of v itself for a core node).
  NodeId CoreId(NodeId v) const { return core_id_[v]; }
  /// True iff v is in the 2-core.
  bool InCore(NodeId v) const { return forest_->Root(v) == v; }
  /// G id of every C node, ascending (the inverse of CoreId on the core).
  const std::vector<NodeId>& CoreNodes() const { return core_nodes_; }

  /// PendantForest::Reduce with a and b as C ids.
  PendantForest::Reduction Reduce(NodeId s, NodeId t) const {
    PendantForest::Reduction r = forest_->Reduce(s, t);
    r.a = core_id_[r.a];
    r.b = core_id_[r.b];
    return r;
  }

 private:
  std::shared_ptr<const PendantForest> forest_;
  G core_;
  std::vector<NodeId> core_id_;
  std::vector<NodeId> core_nodes_;
};

extern template class PendantCore<Graph>;
extern template class PendantCore<WeightedGraph>;

}  // namespace geer

#endif  // GEER_GRAPH_ALGORITHMS_H_
