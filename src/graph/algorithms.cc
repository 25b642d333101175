#include "graph/algorithms.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <queue>
#include <type_traits>

#include "graph/builder.h"
#include "util/check.h"

namespace geer {

namespace {
constexpr std::uint32_t kUnvisited = std::numeric_limits<std::uint32_t>::max();
}  // namespace

bool IsConnected(const Graph& graph) {
  const NodeId n = graph.NumNodes();
  if (n <= 1) return true;
  std::vector<std::uint32_t> dist = BfsDistances(graph, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](std::uint32_t d) { return d == kUnvisited; });
}

bool IsBipartite(const Graph& graph) {
  const NodeId n = graph.NumNodes();
  std::vector<std::int8_t> color(n, -1);
  std::queue<NodeId> queue;
  for (NodeId start = 0; start < n; ++start) {
    if (color[start] != -1) continue;
    color[start] = 0;
    queue.push(start);
    while (!queue.empty()) {
      NodeId u = queue.front();
      queue.pop();
      for (NodeId v : graph.Neighbors(u)) {
        if (color[v] == -1) {
          color[v] = static_cast<std::int8_t>(1 - color[u]);
          queue.push(v);
        } else if (color[v] == color[u]) {
          return false;
        }
      }
    }
  }
  return true;
}

std::vector<std::uint32_t> ConnectedComponents(const Graph& graph) {
  const NodeId n = graph.NumNodes();
  std::vector<std::uint32_t> label(n, kUnvisited);
  std::uint32_t next_label = 0;
  std::vector<NodeId> stack;
  for (NodeId start = 0; start < n; ++start) {
    if (label[start] != kUnvisited) continue;
    label[start] = next_label;
    stack.push_back(start);
    while (!stack.empty()) {
      NodeId u = stack.back();
      stack.pop_back();
      for (NodeId v : graph.Neighbors(u)) {
        if (label[v] == kUnvisited) {
          label[v] = next_label;
          stack.push_back(v);
        }
      }
    }
    ++next_label;
  }
  return label;
}

Graph LargestConnectedComponent(const Graph& graph) {
  const NodeId n = graph.NumNodes();
  if (n == 0) return graph;
  std::vector<std::uint32_t> label = ConnectedComponents(graph);
  std::uint32_t num_components =
      *std::max_element(label.begin(), label.end()) + 1;
  std::vector<std::uint64_t> size(num_components, 0);
  for (std::uint32_t c : label) ++size[c];
  std::uint32_t best = static_cast<std::uint32_t>(
      std::max_element(size.begin(), size.end()) - size.begin());

  std::vector<char> keep(n);
  for (NodeId v = 0; v < n; ++v) keep[v] = label[v] == best ? 1 : 0;
  std::vector<NodeId> remap;
  return InducedSubgraph(graph, keep, &remap);
}

template <typename G>
G InducedSubgraph(const G& graph, const std::vector<char>& keep,
                  std::vector<NodeId>* remap) {
  constexpr bool kWeighted = std::is_same_v<G, WeightedGraph>;
  const NodeId n = graph.NumNodes();
  GEER_CHECK_EQ(keep.size(), n);
  remap->assign(n, 0);
  NodeId kept = 0;
  std::uint64_t arc_bound = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (keep[v] == 0) continue;
    (*remap)[v] = kept++;
    arc_bound += graph.Degree(v);
  }
  std::vector<std::uint64_t> offsets = {0};
  offsets.reserve(std::uint64_t{kept} + 1);
  std::vector<NodeId> neighbors;
  neighbors.reserve(arc_bound);
  std::vector<double> weights;
  if constexpr (kWeighted) weights.reserve(arc_bound);
  const std::vector<std::uint64_t>& row = graph.Offsets();
  const std::vector<NodeId>& arcs = graph.NeighborArray();
  for (NodeId u = 0; u < n; ++u) {
    if (keep[u] == 0) continue;
    for (std::uint64_t k = row[u]; k < row[u + 1]; ++k) {
      if (keep[arcs[k]] == 0) continue;
      neighbors.push_back((*remap)[arcs[k]]);
      if constexpr (kWeighted) weights.push_back(graph.WeightArray()[k]);
    }
    offsets.push_back(neighbors.size());
  }
  if constexpr (kWeighted) {
    return G(std::move(offsets), std::move(neighbors), std::move(weights));
  } else {
    return G(std::move(offsets), std::move(neighbors));
  }
}

template Graph InducedSubgraph(const Graph&, const std::vector<char>&,
                               std::vector<NodeId>*);
template WeightedGraph InducedSubgraph(const WeightedGraph&,
                                       const std::vector<char>&,
                                       std::vector<NodeId>*);

Graph EnsureNonBipartite(const Graph& graph) {
  if (!IsBipartite(graph)) return graph;
  const NodeId n = graph.NumNodes();
  GEER_CHECK_GE(n, 3u) << "cannot break bipartiteness with fewer than 3 nodes";
  // 2-color, then connect the two smallest same-color non-adjacent nodes
  // that share a component with an edge, closing an odd cycle.
  std::vector<std::int8_t> color(n, -1);
  std::vector<std::uint32_t> comp = ConnectedComponents(graph);
  std::queue<NodeId> queue;
  for (NodeId start = 0; start < n; ++start) {
    if (color[start] != -1) continue;
    color[start] = 0;
    queue.push(start);
    while (!queue.empty()) {
      NodeId u = queue.front();
      queue.pop();
      for (NodeId v : graph.Neighbors(u)) {
        if (color[v] == -1) {
          color[v] = static_cast<std::int8_t>(1 - color[u]);
          queue.push(v);
        }
      }
    }
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId w = u + 1; w < n; ++w) {
      if (comp[u] == comp[w] && color[u] == color[w] && !graph.HasEdge(u, w)) {
        GraphBuilder builder(n);
        builder.AddEdges(graph.Edges());
        builder.AddEdge(u, w);
        return builder.Build();
      }
    }
  }
  GEER_CHECK(false) << "no odd-cycle-closing edge exists (graph too small)";
  return graph;  // Unreachable.
}

std::vector<std::uint32_t> BfsDistances(const Graph& graph, NodeId source) {
  const NodeId n = graph.NumNodes();
  GEER_CHECK(source < n);
  std::vector<std::uint32_t> dist(n, kUnvisited);
  std::queue<NodeId> queue;
  dist[source] = 0;
  queue.push(source);
  while (!queue.empty()) {
    NodeId u = queue.front();
    queue.pop();
    for (NodeId v : graph.Neighbors(u)) {
      if (dist[v] == kUnvisited) {
        dist[v] = dist[u] + 1;
        queue.push(v);
      }
    }
  }
  return dist;
}

std::uint32_t ApproxDiameter(const Graph& graph) {
  GEER_CHECK_GT(graph.NumNodes(), 0u);
  GEER_CHECK(IsConnected(graph)) << "diameter of a disconnected graph";
  auto farthest = [&graph](NodeId from) {
    std::vector<std::uint32_t> dist = BfsDistances(graph, from);
    auto it = std::max_element(dist.begin(), dist.end());
    return std::make_pair(static_cast<NodeId>(it - dist.begin()), *it);
  };
  auto [far_node, d1] = farthest(0);
  auto [ignored, d2] = farthest(far_node);
  (void)ignored;
  (void)d1;
  return d2;
}

template <typename G>
std::shared_ptr<const PendantForest> PendantForest::Peel(
    const G& graph, const double* weights) {
  const NodeId n = graph.NumNodes();
  std::vector<std::uint64_t> degree(n);
  std::vector<NodeId> stack;
  for (NodeId v = 0; v < n; ++v) {
    degree[v] = graph.Degree(v);
    if (degree[v] == 1) stack.push_back(v);
  }
  if (stack.empty()) return nullptr;

  auto forest = std::make_shared<PendantForest>();
  forest->root_.resize(n);
  forest->parent_.resize(n);
  std::iota(forest->root_.begin(), forest->root_.end(), NodeId{0});
  std::iota(forest->parent_.begin(), forest->parent_.end(), NodeId{0});
  forest->depth_.assign(n, 0);
  if (weights != nullptr) forest->edge_r_.assign(n, 0.0);
  // A peeled node's degree drops to 0, so "degree > 0" marks the nodes
  // still in the graph; its one such neighbour is its parent. Scanning a
  // row once per peeled node keeps the peel O(n + m).
  std::vector<NodeId> peeled;
  const std::vector<std::uint64_t>& offsets = graph.Offsets();
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    // 0 here: u's last neighbour went first, so u is a tree's root.
    if (degree[u] != 1) continue;
    std::uint64_t k = offsets[u];
    while (degree[graph.NeighborArray()[k]] == 0) ++k;
    const NodeId p = graph.NeighborArray()[k];
    forest->parent_[u] = p;
    if (weights != nullptr) forest->edge_r_[u] = 1.0 / weights[k];
    degree[u] = 0;
    peeled.push_back(u);
    if (--degree[p] == 1) stack.push_back(p);
  }
  forest->num_peeled_ = static_cast<NodeId>(peeled.size());

  // Parents are peeled after their children (or never), so the reverse
  // peel order visits every parent first.
  if (weights != nullptr) forest->dist_.assign(n, 0.0);
  for (auto it = peeled.rbegin(); it != peeled.rend(); ++it) {
    const NodeId u = *it;
    const NodeId p = forest->parent_[u];
    forest->root_[u] = forest->root_[p];
    forest->depth_[u] = forest->depth_[p] + 1;
    if (weights != nullptr) {
      forest->dist_[u] = forest->dist_[p] + forest->edge_r_[u];
    }
  }
  return forest;
}

std::shared_ptr<const PendantForest> PendantForest::Build(
    const Graph& graph) {
  return Peel(graph, nullptr);
}

std::shared_ptr<const PendantForest> PendantForest::Build(
    const WeightedGraph& graph) {
  return Peel(graph, graph.WeightArray().data());
}

PendantForest::Reduction PendantForest::Reduce(NodeId s, NodeId t) const {
  GEER_DCHECK(s < NumNodes() && t < NumNodes());
  if (root_[s] != root_[t]) {
    return {root_[s], root_[t], Resistance(s) + Resistance(t)};
  }
  // Same tree: climb the deeper side, then both, to the common ancestor.
  // Each side sums its own edges bottom-up, so Reduce(t, s) adds the
  // same two partial sums and the offset keeps its bits.
  double rs = 0.0;
  double rt = 0.0;
  while (depth_[s] > depth_[t]) {
    rs += EdgeResistance(s);
    s = parent_[s];
  }
  while (depth_[t] > depth_[s]) {
    rt += EdgeResistance(t);
    t = parent_[t];
  }
  while (s != t) {
    rs += EdgeResistance(s);
    s = parent_[s];
    rt += EdgeResistance(t);
    t = parent_[t];
  }
  return {s, s, rs + rt};
}

template <typename G>
std::shared_ptr<const PendantCore<G>> PendantCore<G>::Build(const G& graph) {
  std::shared_ptr<const PendantForest> forest = PendantForest::Build(graph);
  if (forest == nullptr) return nullptr;
  auto core = std::make_shared<PendantCore<G>>();
  const NodeId n = graph.NumNodes();
  std::vector<char> keep(n);
  for (NodeId v = 0; v < n; ++v) keep[v] = forest->Root(v) == v ? 1 : 0;
  core->core_ = InducedSubgraph(graph, keep, &core->core_id_);
  core->core_nodes_.reserve(core->core_.NumNodes());
  for (NodeId v = 0; v < n; ++v) {
    if (keep[v] != 0) {
      core->core_nodes_.push_back(v);
    } else {
      core->core_id_[v] = core->core_id_[forest->Root(v)];
    }
  }
  core->forest_ = std::move(forest);
  return core;
}

template class PendantCore<Graph>;
template class PendantCore<WeightedGraph>;

}  // namespace geer
