// O(1) sampling from discrete distributions via Vose's alias method, and
// the weighted random-walk sampler built on it. A weighted walk moves from
// v to neighbor u with probability w(v,u)/w(v); the alias tables make each
// step a single table lookup regardless of degree, preserving the
// O(walk length) step cost the paper's complexity analysis charges.

#ifndef GEER_RW_ALIAS_H_
#define GEER_RW_ALIAS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/weighted_graph.h"
#include "rw/rng.h"
#include "rw/walker.h"

namespace geer {

/// Alias table over a fixed discrete distribution on {0, …, k−1}.
class AliasTable {
 public:
  /// An empty table; Sample() is invalid until Build().
  AliasTable() = default;

  /// Builds from non-negative weights (not necessarily normalized). At
  /// least one weight must be positive.
  explicit AliasTable(std::span<const double> weights) { Build(weights); }

  /// (Re)builds the table; see the constructor contract.
  void Build(std::span<const double> weights);

  /// Number of outcomes k.
  std::size_t Size() const { return prob_.size(); }

  /// Draws an index in [0, k) with probability proportional to its weight.
  std::uint32_t Sample(Rng& rng) const {
    GEER_DCHECK(!prob_.empty());
    const std::uint32_t slot =
        static_cast<std::uint32_t>(rng.NextBounded(prob_.size()));
    return rng.NextDouble() < prob_[slot] ? slot : alias_[slot];
  }

 private:
  std::vector<double> prob_;          // acceptance probability per slot
  std::vector<std::uint32_t> alias_;  // fallback outcome per slot
};

/// Samples weighted random walks over a fixed WeightedGraph. Construction
/// builds one flat alias structure aligned with the CSR arrays (O(m) time
/// and space); each Step() is O(1).
class WeightedWalker {
 public:
  explicit WeightedWalker(const WeightedGraph& graph);
  // Stores a pointer to `graph`; a temporary would dangle.
  explicit WeightedWalker(WeightedGraph&&) = delete;

  /// Raw Rng words per step: the alias slot, then the acceptance coin.
  static constexpr int kWordsPerStep = 2;

  /// One walk step from `v`: neighbor u with probability w(v,u)/w(v).
  /// `v` must have positive degree.
  NodeId Step(NodeId v, Rng& rng) const { return DrawStep(*this, v, rng); }

  /// The step from `v` on the pre-drawn words: words[0] picks the slot,
  /// words[1] flips its acceptance coin (see WordStep).
  WordStep StepFromWords(NodeId v, const std::uint64_t* words) const {
    const std::uint64_t off = graph_->Offsets()[v];
    const std::uint64_t deg = graph_->Offsets()[v + 1] - off;
    GEER_DCHECK(deg > 0);
    const BoundedDraw draw = LemireBounded(words[0], deg);
    const std::uint64_t slot = off + draw.index;
    const std::uint64_t pick =
        UnitDouble(words[1]) < prob_[slot] ? slot : alias_[slot];
    return {graph_->NeighborArray()[pick], !draw.accepted};
  }

  /// The node reached by a length-`length` walk from `source`.
  NodeId WalkEndpoint(NodeId source, std::uint32_t length, Rng& rng) const;

  /// The full node sequence visited by a length-`length` walk from
  /// `source`, positions 1..length (start node not included); mirrors
  /// Walker::WalkPath.
  void WalkPath(NodeId source, std::uint32_t length, Rng& rng,
                std::vector<NodeId>* out) const;

  /// See the free-function EscapeTrial (rw/walker.h).
  WalkAbsorption EscapeTrial(NodeId source, NodeId target,
                             std::uint64_t max_steps, Rng& rng) const {
    return geer::EscapeTrial(*this, source, target, max_steps, rng);
  }

  /// See the free-function FirstVisitTrial (rw/walker.h).
  WalkFirstVisit FirstVisitTrial(NodeId source, NodeId target,
                                 std::uint64_t max_steps, Rng& rng) const {
    return geer::FirstVisitTrial(*this, source, target, max_steps, rng);
  }

  const WeightedGraph& graph() const { return *graph_; }

 private:
  const WeightedGraph* graph_;
  // Flat per-node alias tables sharing the CSR index space: slot k in
  // [offsets[v], offsets[v+1]) accepts arc k with prob_[k], else redirects
  // to arc alias_[k] of the same node.
  std::vector<double> prob_;
  std::vector<std::uint64_t> alias_;
};

}  // namespace geer

#endif  // GEER_RW_ALIAS_H_
