#include "core/rp.h"

#include "util/check.h"

namespace geer {

template <WeightPolicy WP>
void RpEstimatorT<WP>::CheckFeasible(const GraphT& graph) const {
  GEER_CHECK(Feasible(graph, options_))
      << "RP sketch of " << SketchBytes(graph, options_)
      << " bytes exceeds the rp_max_bytes budget (paper: out of memory)";
}

template <WeightPolicy WP>
RpEstimatorT<WP>::RpEstimatorT(const GraphT& graph, ErOptions options)
    : options_(options) {
  ValidateOptions(options);
  CheckFeasible(graph);
  sketch_ = std::make_shared<const ErEmbedding>(graph, SketchOptions(options));
  shared_sketch_ = std::make_shared<EpochShared<ErEmbedding>>(sketch_);
}

template <WeightPolicy WP>
bool RpEstimatorT<WP>::RebindGraph(const GraphT& graph,
                                   const GraphEpoch& epoch) {
  CheckFeasible(graph);
  sketch_ = shared_sketch_->GetOrBuild(epoch.epoch, [this, &graph]() {
    return std::make_shared<const ErEmbedding>(graph,
                                               SketchOptions(options_));
  });
  return true;
}

template <WeightPolicy WP>
QueryStats RpEstimatorT<WP>::EstimateWithStats(NodeId s, NodeId t) {
  QueryStats stats;
  stats.value = sketch_->PairwiseEr(s, t);
  return stats;
}

template class RpEstimatorT<UnitWeight>;
template class RpEstimatorT<EdgeWeight>;

}  // namespace geer
