#include "graph/weighted_graph.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace geer {

WeightedGraph::WeightedGraph(std::vector<std::uint64_t> offsets,
                             std::vector<NodeId> neighbors,
                             std::vector<double> weights)
    : num_nodes_(offsets.empty() ? 0 : offsets.size() - 1),
      offsets_(std::move(offsets)),
      neighbors_(std::move(neighbors)),
      weights_(std::move(weights)) {
  GEER_CHECK(!offsets_.empty()) << "offsets must have n+1 entries";
  GEER_CHECK_EQ(offsets_.front(), 0u);
  GEER_CHECK_EQ(offsets_.back(), neighbors_.size());
  GEER_CHECK_EQ(neighbors_.size(), weights_.size());

  strengths_.assign(num_nodes_, 0.0);
  for (std::uint64_t v = 0; v < num_nodes_; ++v) {
    GEER_CHECK_LE(offsets_[v], offsets_[v + 1]);
    double strength = 0.0;
    for (std::uint64_t k = offsets_[v]; k < offsets_[v + 1]; ++k) {
      GEER_CHECK(neighbors_[k] < num_nodes_)
          << "neighbor " << neighbors_[k] << " out of range";
      GEER_CHECK(std::isfinite(weights_[k]) && weights_[k] > 0.0)
          << "edge weight must be positive and finite, got " << weights_[k];
      strength += weights_[k];
    }
    strengths_[v] = strength;
    total_weight_ += strength;
  }
  total_weight_ /= 2.0;
}

double WeightedGraph::EdgeWeight(NodeId u, NodeId v) const {
  GEER_DCHECK(u < num_nodes_);
  GEER_DCHECK(v < num_nodes_);
  const auto nbrs = Neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return 0.0;
  return weights_[offsets_[u] + static_cast<std::uint64_t>(it - nbrs.begin())];
}

std::vector<WeightedEdge> WeightedGraph::Edges() const {
  std::vector<WeightedEdge> edges;
  edges.reserve(NumEdges());
  for (NodeId u = 0; u < NumNodes(); ++u) {
    const auto nbrs = Neighbors(u);
    const auto wts = Weights(u);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      if (u < nbrs[k]) edges.push_back({u, nbrs[k], wts[k]});
    }
  }
  return edges;
}

Graph WeightedGraph::Skeleton() const {
  return Graph(offsets_, neighbors_);
}

WeightedGraphBuilder& WeightedGraphBuilder::AddEdge(NodeId u, NodeId v,
                                                    double w) {
  GEER_CHECK(std::isfinite(w) && w > 0.0)
      << "edge weight must be positive and finite, got " << w;
  GEER_CHECK(std::max(u, v) < std::numeric_limits<NodeId>::max())
      << "node id " << std::numeric_limits<NodeId>::max() << " is reserved";
  num_nodes_ = std::max(num_nodes_, std::max(u, v) + 1);
  if (u == v) return *this;  // self-loops contribute nothing to ER
  if (u > v) std::swap(u, v);
  edges_.emplace_back(u, v, w);
  return *this;
}

WeightedGraph WeightedGraphBuilder::Build() {
  std::sort(edges_.begin(), edges_.end(),
            [](const auto& a, const auto& b) {
              return std::tie(std::get<0>(a), std::get<1>(a)) <
                     std::tie(std::get<0>(b), std::get<1>(b));
            });

  // Merge parallel edges: conductances in parallel add.
  std::vector<std::tuple<NodeId, NodeId, double>> merged;
  merged.reserve(edges_.size());
  for (const auto& e : edges_) {
    if (!merged.empty() && std::get<0>(merged.back()) == std::get<0>(e) &&
        std::get<1>(merged.back()) == std::get<1>(e)) {
      std::get<2>(merged.back()) += std::get<2>(e);
    } else {
      merged.push_back(e);
    }
  }

  const std::uint64_t n = num_nodes_;
  std::vector<std::uint64_t> counts(n + 1, 0);
  for (const auto& [u, v, w] : merged) {
    ++counts[u + 1];
    ++counts[v + 1];
  }
  for (std::uint64_t i = 0; i < n; ++i) counts[i + 1] += counts[i];

  std::vector<NodeId> neighbors(merged.size() * 2);
  std::vector<double> weights(merged.size() * 2);
  std::vector<std::uint64_t> cursor = counts;
  for (const auto& [u, v, w] : merged) {
    neighbors[cursor[u]] = v;
    weights[cursor[u]++] = w;
    neighbors[cursor[v]] = u;
    weights[cursor[v]++] = w;
  }
  // Adjacency within each node is sorted because merged edges were sorted
  // by (min, max) endpoint and scattered in order for the min side; the
  // max side needs a per-node sort.
  for (std::uint64_t v = 0; v < n; ++v) {
    std::vector<std::pair<NodeId, double>> row;
    row.reserve(counts[v + 1] - counts[v]);
    for (std::uint64_t k = counts[v]; k < counts[v + 1]; ++k) {
      row.emplace_back(neighbors[k], weights[k]);
    }
    std::sort(row.begin(), row.end());
    for (std::uint64_t k = counts[v]; k < counts[v + 1]; ++k) {
      neighbors[k] = row[k - counts[v]].first;
      weights[k] = row[k - counts[v]].second;
    }
  }

  edges_.clear();
  const NodeId declared = num_nodes_;
  num_nodes_ = 0;
  (void)declared;
  return WeightedGraph(std::move(counts), std::move(neighbors),
                       std::move(weights));
}

WeightedGraph FromUnweighted(const Graph& graph) {
  return WeightedGraph(graph.Offsets(), graph.NeighborArray(),
                       std::vector<double>(graph.NumArcs(), 1.0));
}

}  // namespace geer
