// RP baseline [Spielman & Srivastava, STOC'08]: approximate all-pairs ER
// via Johnson–Lindenstrauss projection of W^{1/2} B L†. Preprocessing
// is the library's one sketch, an ErEmbedding (embed/er_embedding.h)
// with k = ⌈24 ln n / ε²⌉ (one Laplacian solve per dimension); queries
// are then O(k) PairwiseEr lookups. Memory for the sketch is the
// bottleneck the paper reports (OOM on Orkut/LiveJournal/Friendster).
// Weight-generic over graph/weight_policy.h: each edge's sketch entry is
// scaled by √w(e), which is identically 1 on the unweighted stack.

#ifndef GEER_CORE_RP_H_
#define GEER_CORE_RP_H_

#include <memory>
#include <string>

#include "core/epoch_shared.h"
#include "core/estimator.h"
#include "core/options.h"
#include "embed/er_embedding.h"
#include "graph/weight_policy.h"

namespace geer {

template <WeightPolicy WP>
class RpEstimatorT : public ErEstimator {
 public:
  using GraphT = typename WP::GraphT;

  /// Builds the sketch. Aborts if the n×k sketch exceeds
  /// options.rp_max_bytes — use Feasible() to pre-check (the benchmark
  /// harness reports those configurations as OOM, like the paper).
  explicit RpEstimatorT(const GraphT& graph, ErOptions options = {});
  // The sketch keeps no pointer into `graph`, but every estimator
  // rejects a temporary graph alike (estimator_contract_test).
  explicit RpEstimatorT(GraphT&&, ErOptions = {}) = delete;

  std::string Name() const override {
    return std::string(WP::kNamePrefix) + "RP";
  }
  QueryStats EstimateWithStats(NodeId s, NodeId t) override;

  /// Batch workers share the n×k sketch — the k Laplacian solves of the
  /// preprocessing are paid once, not per thread.
  std::unique_ptr<ErEstimator> CloneForBatch() const override {
    return std::unique_ptr<ErEstimator>(new RpEstimatorT<WP>(*this));
  }

  /// Dynamic-graph hook: the sketch depends on the whole graph (one
  /// Laplacian solve per dimension), so any epoch change rebuilds it —
  /// once per epoch across every clone sharing it. Aborts like construction
  /// if the new sketch exceeds rp_max_bytes — pre-check with Feasible().
  using ErEstimator::RebindGraph;
  bool RebindGraph(const GraphT& graph, const GraphEpoch& epoch) override;

  /// Projection dimension in use.
  int Dimensions() const { return sketch_->Dimensions(); }

  /// Derived sketch size in bytes for the given graph/options.
  static std::uint64_t SketchBytes(const GraphT& graph,
                                   const ErOptions& options) {
    return ErEmbedding::TableBytes(graph.NumNodes(), SketchOptions(options));
  }

  /// True iff the sketch fits the options' memory budget.
  static bool Feasible(const GraphT& graph, const ErOptions& options) {
    return ErEmbedding::Feasible(graph.NumNodes(), SketchOptions(options));
  }

  /// The projection dimension k implied by the options (paper's
  /// 24 ln n / ε² unless overridden), saturated at INT_MAX.
  static int DeriveDimensions(const GraphT& graph, const ErOptions& options) {
    return ErEmbedding::DeriveDimensions(graph.NumNodes(),
                                         SketchOptions(options));
  }

 private:
  // Clone constructor: adopts the shared sketch and its epoch holder.
  RpEstimatorT(const RpEstimatorT& other) = default;

  // The embedding options the sketch is built with: ε, rp_dimensions,
  // seed and rp_max_bytes mapped onto ErEmbedding's one k formula.
  static ErEmbeddingOptions SketchOptions(const ErOptions& options) {
    return {.epsilon = options.epsilon,
            .dimensions = options.rp_dimensions,
            .seed = options.seed,
            .max_bytes = options.rp_max_bytes};
  }

  // Aborts, naming the budget, if `graph`'s sketch is infeasible.
  void CheckFeasible(const GraphT& graph) const;

  ErOptions options_;
  std::shared_ptr<const ErEmbedding> sketch_;
  std::shared_ptr<EpochShared<ErEmbedding>> shared_sketch_;
};

/// The two stacks, by their historical names.
using RpEstimator = RpEstimatorT<UnitWeight>;
using WeightedRpEstimator = RpEstimatorT<EdgeWeight>;

extern template class RpEstimatorT<UnitWeight>;
extern template class RpEstimatorT<EdgeWeight>;

}  // namespace geer

#endif  // GEER_CORE_RP_H_
