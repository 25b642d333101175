#include "centrality/landmarks.h"

#include <algorithm>
#include <numeric>

namespace geer {
namespace {

// Top-`count` node ids by descending score, ties by ascending id. A full
// sort keeps this trivially deterministic; selection runs once per graph
// (serve startup), never per query.
std::vector<NodeId> TopByScore(const std::vector<double>& score,
                               std::size_t count) {
  std::vector<NodeId> nodes(score.size());
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  std::stable_sort(nodes.begin(), nodes.end(), [&score](NodeId a, NodeId b) {
    if (score[a] != score[b]) return score[a] > score[b];
    return a < b;
  });
  if (count < nodes.size()) nodes.resize(count);
  return nodes;
}

}  // namespace

std::vector<NodeId> SelectLandmarks(const Graph& graph, std::size_t count) {
  std::vector<double> score(graph.NumNodes());
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    score[v] = static_cast<double>(graph.Degree(v));
  }
  return TopByScore(score, count);
}

std::vector<NodeId> SelectLandmarks(const WeightedGraph& graph,
                                    std::size_t count) {
  std::vector<double> score(graph.NumNodes());
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    score[v] = graph.Strength(v);
  }
  return TopByScore(score, count);
}

}  // namespace geer
