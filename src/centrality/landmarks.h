// Landmark (hub) selection for the serving layer: the K nodes of largest
// node weight (degree / strength), O(n). ServeOptions::landmarks hands
// them to ErEstimator::EnableSessionCache, whose session pins a
// landmark's state when a query first builds it, so Zipf-skewed traffic
// keeps its hub side resident. The rank order matches the one Zipf
// workload generators use, so popular endpoints and landmarks coincide.
//
// Ties always break toward the SMALLER node id, so selection is a pure
// function of the graph — identical across runs, thread counts and
// processes, which the landmark suite enforces.

#ifndef GEER_CENTRALITY_LANDMARKS_H_
#define GEER_CENTRALITY_LANDMARKS_H_

#include <cstddef>
#include <vector>

#include "graph/graph.h"
#include "graph/weighted_graph.h"

namespace geer {

/// The `count` nodes of largest node weight (degree for Graph, strength
/// for WeightedGraph), descending, ties broken by ascending node id.
/// `count` >= n returns all nodes — i.e. the full popularity ranking.
std::vector<NodeId> SelectLandmarks(const Graph& graph, std::size_t count);
std::vector<NodeId> SelectLandmarks(const WeightedGraph& graph,
                                    std::size_t count);

}  // namespace geer

#endif  // GEER_CENTRALITY_LANDMARKS_H_
