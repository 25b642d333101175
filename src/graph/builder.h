// GraphBuilder normalizes raw undirected edge lists into CSR Graphs:
// deduplicates parallel edges, drops self-loops, sorts adjacency lists.
//
// Build() runs in O(n + m) time and memory (a counting sort, no
// comparison sort), for n nodes and m recorded edges. Its output is a
// function of the recorded edge set and the node count alone: row v of
// the CSR arrays lists v's distinct neighbors in increasing order, so the
// same edges give byte-identical Offsets()/NeighborArray() in any order
// and with any duplication. Every λ, walk and answer downstream depends
// on that order; tests/graph_fingerprint_test.cc pins it.

#ifndef GEER_GRAPH_BUILDER_H_
#define GEER_GRAPH_BUILDER_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace geer {

/// Incrementally collects undirected edges and materializes a Graph.
///
/// Usage:
///   GraphBuilder b(5);
///   b.AddEdge(0, 1);
///   b.AddEdge(1, 0);     // duplicate: kept once
///   b.AddEdge(2, 2);     // self-loop: dropped
///   Graph g = b.Build();
class GraphBuilder {
 public:
  /// Creates a builder for a graph with at least `num_nodes` nodes. The
  /// node count grows automatically if AddEdge sees a larger endpoint.
  explicit GraphBuilder(NodeId num_nodes = 0) : num_nodes_(num_nodes) {}

  /// Records the undirected edge {u, v}. Self-loops are silently dropped;
  /// duplicates collapse at Build() time. Node id 0xFFFFFFFF is reserved
  /// (graph algorithms use it as "no node"); passing it aborts.
  void AddEdge(NodeId u, NodeId v);

  /// Records every edge in `edges`.
  void AddEdges(const std::vector<Edge>& edges);

  /// Allocates room for `edges` recorded edges in all, so AddEdge does
  /// not reallocate until then.
  void Reserve(std::size_t edges) { edges_.reserve(edges); }

  /// Current node count (max endpoint seen + 1, or the constructor hint).
  NodeId NumNodes() const { return num_nodes_; }

  /// Number of (possibly duplicated) edges recorded so far.
  std::size_t NumRecordedEdges() const { return edges_.size(); }

  /// Materializes the CSR graph in O(n + m). The builder may be reused
  /// afterwards; recorded edges are retained.
  Graph Build() const;

 private:
  NodeId num_nodes_ = 0;
  std::vector<Edge> edges_;
};

/// Convenience: builds a graph from an edge list with `num_nodes` nodes.
Graph BuildGraph(NodeId num_nodes, const std::vector<Edge>& edges);

}  // namespace geer

#endif  // GEER_GRAPH_BUILDER_H_
