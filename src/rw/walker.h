// Random-walk samplers. A "simple random walk" moves from the current
// node v to a uniformly random neighbor of v (transition matrix
// P = D^{-1} A); its weighted counterpart (rw/alias.h) picks neighbor u
// with probability w(v,u)/w(v). These samplers are the Monte Carlo
// substrate for MC, MC2, TP, TPC, AMC and GEER in both weight modes.
//
// The trial routines (escape trials for MC, first-visit trials for MC2)
// are generic over any walker exposing Step(); Walker and WeightedWalker
// share them, so the estimator templates never duplicate trial logic.

#ifndef GEER_RW_WALKER_H_
#define GEER_RW_WALKER_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "rw/rng.h"

namespace geer {

/// Outcome of an absorbing walk used by the MC baseline.
enum class WalkAbsorption {
  kHitTarget,  ///< reached `target` before returning to `source`
  kReturned,   ///< returned to `source` before reaching `target`
  kStepLimit,  ///< exceeded `max_steps` (treated as a failed trial)
};

/// Result of a first-visit trial used by the MC2 baseline.
struct WalkFirstVisit {
  bool used_direct_edge = false;  ///< first arrival at target came via
                                  ///< the direct source→target edge
  bool hit = false;               ///< target reached within max_steps
  std::uint64_t steps = 0;        ///< steps taken
};

/// One walk step computed from pre-drawn Rng words (StepFromWords).
struct WordStep {
  /// The node reached: a neighbor of the start node, though not the
  /// serial stream's one when needs_more is set.
  NodeId next;
  /// The index word fell in Lemire's biased sliver (LemireBounded), so
  /// the serial stream draws a replacement word before stepping. Happens
  /// with probability < degree/2^64.
  bool needs_more;
};

/// One step of `walker` from `v` in serial stream order: draws the
/// walker's kWordsPerStep words and steps on them. The index word is
/// always the first, so on needs_more the window slides by one fresh
/// word — exactly Rng::NextBounded's redraw. Every walker's Step() is
/// this, so Step() and StepFromWords() cannot drift apart.
template <typename WalkerT>
NodeId DrawStep(const WalkerT& walker, NodeId v, Rng& rng) {
  constexpr int kWords = WalkerT::kWordsPerStep;
  std::uint64_t words[kWords];
  for (std::uint64_t& word : words) word = rng.Next();
  for (;;) {
    const WordStep step = walker.StepFromWords(v, words);
    if (!step.needs_more) return step.next;
    for (int i = 0; i + 1 < kWords; ++i) words[i] = words[i + 1];
    words[kWords - 1] = rng.Next();
  }
}

/// Walks from `source` (first step mandatory) until it either returns to
/// `source` or reaches `target`. For the walk law of `walker`, the escape
/// probability Pr[hit target first] equals 1/(w(source)·r(source,target))
/// with w = d in the unit-weight mode.
template <typename WalkerT>
WalkAbsorption EscapeTrial(const WalkerT& walker, NodeId source,
                           NodeId target, std::uint64_t max_steps, Rng& rng) {
  GEER_DCHECK(source != target);
  NodeId cur = walker.Step(source, rng);
  for (std::uint64_t step = 1; step <= max_steps; ++step) {
    if (cur == target) return WalkAbsorption::kHitTarget;
    if (cur == source) return WalkAbsorption::kReturned;
    cur = walker.Step(cur, rng);
  }
  return WalkAbsorption::kStepLimit;
}

/// Walks from `source` until the first visit to `target` (or `max_steps`),
/// reporting whether that first arrival used the edge (source, target) —
/// the event whose probability equals w(source,target)·r(source,target)
/// for (source, target) ∈ E (= r(source,target) in the unit-weight mode).
template <typename WalkerT>
WalkFirstVisit FirstVisitTrial(const WalkerT& walker, NodeId source,
                               NodeId target, std::uint64_t max_steps,
                               Rng& rng) {
  GEER_DCHECK(source != target);
  WalkFirstVisit result;
  NodeId prev = source;
  NodeId cur = walker.Step(source, rng);
  while (result.steps < max_steps) {
    ++result.steps;
    if (cur == target) {
      result.hit = true;
      result.used_direct_edge = (prev == source);
      return result;
    }
    prev = cur;
    cur = walker.Step(cur, rng);
  }
  return result;
}

/// Samples simple (uniform-neighbor) random walks over a fixed graph.
class Walker {
 public:
  // Compat aliases: the trial types predate the weight-generic refactor
  // as nested members.
  using Absorption = WalkAbsorption;
  using FirstVisit = WalkFirstVisit;

  explicit Walker(const Graph& graph) : graph_(&graph) {}
  // Stores a pointer to `graph`; a temporary would dangle.
  explicit Walker(Graph&&) = delete;

  /// Raw Rng words per step: the neighbor index.
  static constexpr int kWordsPerStep = 1;

  /// One walk step: a uniformly random neighbor of `v`. `v` must have
  /// positive degree.
  NodeId Step(NodeId v, Rng& rng) const { return DrawStep(*this, v, rng); }

  /// The step from `v` on the pre-drawn word words[0] (see WordStep).
  WordStep StepFromWords(NodeId v, const std::uint64_t* words) const {
    const std::uint64_t off = graph_->Offsets()[v];
    const std::uint64_t deg = graph_->Offsets()[v + 1] - off;
    GEER_DCHECK(deg > 0);
    const BoundedDraw draw = LemireBounded(words[0], deg);
    return {graph_->NeighborArray()[off + draw.index], !draw.accepted};
  }

  /// The node reached by a length-`length` walk from `source`.
  NodeId WalkEndpoint(NodeId source, std::uint32_t length, Rng& rng) const;

  /// The full node sequence visited by a length-`length` walk from
  /// `source`, positions 1..length (the start node is NOT included,
  /// matching the walk-sum convention of Lemma 3.3). Appends into `out`
  /// (cleared first) to let callers reuse the buffer.
  void WalkPath(NodeId source, std::uint32_t length, Rng& rng,
                std::vector<NodeId>* out) const;

  /// See the free-function EscapeTrial.
  Absorption EscapeTrial(NodeId source, NodeId target,
                         std::uint64_t max_steps, Rng& rng) const {
    return geer::EscapeTrial(*this, source, target, max_steps, rng);
  }

  /// See the free-function FirstVisitTrial.
  FirstVisit FirstVisitTrial(NodeId source, NodeId target,
                             std::uint64_t max_steps, Rng& rng) const {
    return geer::FirstVisitTrial(*this, source, target, max_steps, rng);
  }

  const Graph& graph() const { return *graph_; }

 private:
  const Graph* graph_;
};

}  // namespace geer

#endif  // GEER_RW_WALKER_H_
