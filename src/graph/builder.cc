#include "graph/builder.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace geer {

void GraphBuilder::AddEdge(NodeId u, NodeId v) {
  GEER_CHECK(std::max(u, v) < std::numeric_limits<NodeId>::max())
      << "node id " << std::numeric_limits<NodeId>::max() << " is reserved";
  // Endpoints count as nodes even when the edge itself is dropped (SNAP
  // files may mention a node only via a self-loop).
  num_nodes_ = std::max(num_nodes_, std::max(u, v) + 1);
  if (u == v) return;  // Self-loops are not representable.
  if (u > v) std::swap(u, v);
  edges_.emplace_back(u, v);
}

void GraphBuilder::AddEdges(const std::vector<Edge>& edges) {
  for (const auto& [u, v] : edges) AddEdge(u, v);
}

Graph GraphBuilder::Build() const {
  // Counting sort in two scatter passes. Arc counts include duplicates;
  // both passes use the same row bounds because every edge adds one arc
  // to each endpoint's row.
  const std::uint64_t n = num_nodes_;
  std::vector<std::uint64_t> offsets(n + 1, 0);
  for (const auto& [u, v] : edges_) {
    ++offsets[u + 1];
    ++offsets[v + 1];
  }
  for (std::uint64_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];

  // Pass 1: bucket the arcs by one endpoint, in insertion order.
  std::vector<NodeId> unsorted(offsets[n]);
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& [u, v] : edges_) {
    unsorted[cursor[u]++] = v;
    unsorted[cursor[v]++] = u;
  }
  // Pass 2: transpose. Visiting rows in increasing order appends each row
  // id to its neighbors' rows, so every row comes out sorted with its
  // duplicates adjacent.
  std::vector<NodeId> neighbors(offsets[n]);
  std::copy(offsets.begin(), offsets.end() - 1, cursor.begin());
  for (std::uint64_t u = 0; u < n; ++u) {
    for (std::uint64_t k = offsets[u]; k < offsets[u + 1]; ++k) {
      neighbors[cursor[unsorted[k]]++] = static_cast<NodeId>(u);
    }
  }
  unsorted = {};

  // Drop the duplicates in place, row by row.
  std::uint64_t kept = 0;
  for (std::uint64_t v = 0; v < n; ++v) {
    const std::uint64_t begin = offsets[v];
    const std::uint64_t end = offsets[v + 1];
    offsets[v] = kept;
    for (std::uint64_t k = begin; k < end; ++k) {
      if (k == begin || neighbors[k] != neighbors[kept - 1]) {
        neighbors[kept++] = neighbors[k];
      }
    }
  }
  offsets[n] = kept;
  neighbors.resize(kept);
  neighbors.shrink_to_fit();  // A copy only when there were duplicates.
  return Graph(std::move(offsets), std::move(neighbors));
}

Graph BuildGraph(NodeId num_nodes, const std::vector<Edge>& edges) {
  GraphBuilder builder(num_nodes);
  builder.AddEdges(edges);
  return builder.Build();
}

}  // namespace geer
