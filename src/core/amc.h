// AMC (Alg. 1): adaptive Monte Carlo estimation of
//   q(s,t) = Σ_{i=1}^{ℓf} Σ_v (p_i(s,v) − p_i(t,v)) (s(v)/w(s) − t(v)/w(t))
// by batches of truncated random walks with an empirical-Bernstein
// stopping rule, generic over the weight policy (w = d unweighted,
// w = strength weighted; weighted walks step through the alias sampler).
// With s = e_s, t = e_t and ℓf = ℓ (Eq. 6),
// r_f + 1_{s≠t}(1/w(s) + 1/w(t)) is an ε-approximate ER w.h.p.
// (Theorem 3.4 — the empirical Bernstein machinery is weight-independent
// because Lemma 3.3 bounds walk sums by visit counts). GEER reuses
// RunAmcT with the SMM iterates as s, t.
//
// One walk table. A step landing on v adds s(v)/w(s) − t(v)/w(t) to Z_k
// on the s-walk and t(v)/w(t) − s(v)/w(s) on the t-walk. RunAmcT reads
// both from one signed table g(v) = s(v)/w(s) − t(v)/w(t): the s-walk adds
// g(v), the t-walk subtracts it. That is exact, not just close: in
// round-to-nearest b − a = −(a − b), and Z_k starts at +0 so it never
// becomes −0 (the build enables no FMA, so nothing is contracted). The
// table is n doubles that the estimator owns as scratch: GEER fills it
// from its SMM iterates with FillAmcWalkTable, standalone AMC sets the two
// entries of its one-hot inputs and clears them after the query. The
// top-two entries of s and t that bound ψ come with it, so RunAmcT
// never scans an n-vector.
//
// Lockstep lanes. A walk step is a chain of dependent loads (the node's
// CSR offset, its neighbor, the table entry at the neighbor), so one
// walk at a time leaves the core waiting on cache misses. RunAmcT
// instead samples kAmcLanes walk pairs at once, one lane per pair, and
// advances every lane one step before any lane takes the next, so the
// lanes' misses overlap (each lane also prefetches the CSR row of the
// node it just reached). Answers stay bit-identical to the one-pair-at-a-
// time loop (every r_f, walk and step count, and the Rng state after):
//  - Word layout. Per group the kernel draws the group's raw Rng words up
//    front, in serial stream order: with W = kWordsPerStep (1 uniform, 2
//    weighted), pair j's s-walk owns words [2jWℓf, 2jWℓf + Wℓf) and its
//    t-walk the next Wℓf. Each step consumes its words through the
//    walker's StepFromWords, the same function its Step() runs.
//  - Order. Each lane sums its pair's Z_k as the serial loop does (s-walk
//    steps, then t-walk steps), and the group's Z_k reach the batch
//    accumulator in pair order.
//  - Rewind on rejection. The serial stream assumes no Lemire rejection;
//    a rejected index word (probability < degree/2^64 per step) makes the
//    serial Step draw an extra word, shifting everything after it. If any
//    lane reports one, the group restores the Rng snapshot taken before
//    its draw and replays its pairs through the serial Step.
// The words are drawn on a local Rng copy whose state stays in registers,
// then written back. Scratch is 2·W·ℓf·kAmcLanes words per call, plus the
// n-double walk table per estimator (one per batch worker).
//
// Skipped batches. Before walking batch b < τ, RunAmcT evaluates the
// stopping bound at zero variance, f(η_b, 0, ψ, δ/τ). If that already
// exceeds ε/2, line 13 cannot fire on the batch whatever its samples (see
// RunAmcT), so the batch walks nothing and counts no walks; it advances
// the Rng by its nominal 2·W·ℓf·η_b words, keeping every later batch on
// the words it would have drawn. The answer then differs from walking the
// batch only if one of those words would have been a Lemire rejection.

#ifndef GEER_CORE_AMC_H_
#define GEER_CORE_AMC_H_

#include <span>
#include <string>
#include <utility>

#include "core/estimator.h"
#include "core/options.h"
#include "graph/weight_policy.h"
#include "linalg/dense.h"
#include "rw/rng.h"
#include "rw/walker_policy.h"

namespace geer {

/// Walk pairs RunAmcT advances in lockstep (see the note above).
inline constexpr std::uint32_t kAmcLanes = 16;

/// Parameters for one RunAmc invocation.
struct AmcParams {
  double epsilon = 0.1;   ///< target additive error (AMC aims for ε/2)
  double delta = 0.01;    ///< failure probability
  int tau = 5;            ///< maximum number of batches
  std::uint32_t ell_f = 0;  ///< walk length
};

/// Instrumented output of RunAmc.
struct AmcRunResult {
  double r_f = 0.0;          ///< the estimate of q(s, t)
  double psi = 0.0;          ///< the range bound ψ of Eq. (9)
  std::uint64_t eta_star = 0;  ///< Hoeffding sample cap η* (Eq. 8)
  std::uint64_t walks = 0;   ///< walks simulated (2 per sample pair)
  std::uint64_t steps = 0;   ///< total walk steps
  int batches = 0;           ///< batches reached, skipped ones included
  bool early_stop = false;   ///< Bernstein rule fired before batch τ
};

/// The range bound ψ of Eq. (9) for walk length ℓf and input vectors with
/// top-two entries (max1_s, max2_s) and (max1_t, max2_t):
///   ψ = 2⌈ℓf/2⌉(max1_s/w(s) + max1_t/w(t))
///     + 2⌊ℓf/2⌋(max2_s/w(s) + max2_t/w(t))
/// where the node weights are degrees (unweighted) or strengths.
double AmcPsi(std::uint32_t ell_f, double max1_s, double max2_s,
              double weight_s, double max1_t, double max2_t,
              double weight_t);

/// Alg. 1 line 2: the first batch's sample count
/// η = max(1, ⌈η*/2^{τ−1}⌉), saturating at UINT64_MAX.
std::uint64_t AmcFirstBatchSize(std::uint64_t eta_star, int tau);

/// What RunAmcT's walks read for input vectors s, t (see the walk-table
/// note above).
struct AmcWalkTable {
  std::span<const double> g;  ///< g(v) = s(v)/w(s) − t(v)/w(t), n entries
  std::pair<double, double> s_top;  ///< TopTwo(s)
  std::pair<double, double> t_top;  ///< TopTwo(t)
};

/// Writes g(v) = svec(v)/weight_s − tvec(v)/weight_t into *table, sized
/// to n (no allocation once it has been).
void FillAmcWalkTable(const Vector& svec, double weight_s,
                      const Vector& tvec, double weight_t, Vector* table);

/// Runs Algorithm 1 under weight policy WP on non-negative length-n input
/// vectors s, t given as their walk table (e_s / e_t for standalone AMC;
/// the SMM iterates for GEER). Walks issue from `s` and `t` through
/// `walker`, which must be built on `graph` — passing it in lets GEER
/// amortize the O(m) alias construction across queries. Requires s ≠ t.
template <WeightPolicy WP>
AmcRunResult RunAmcT(const typename WP::GraphT& graph,
                     const WalkerFor<WP>& walker, NodeId s, NodeId t,
                     const AmcWalkTable& table, const AmcParams& params,
                     Rng& rng);

/// Unweighted compat entry point from the two input vectors: constructs
/// the trivial uniform walker, scans svec and tvec for their top-two and
/// builds a fresh table.
inline AmcRunResult RunAmc(const Graph& graph, NodeId s, NodeId t,
                           const Vector& svec, const Vector& tvec,
                           const AmcParams& params, Rng& rng) {
  const Walker walker(graph);
  Vector g;
  FillAmcWalkTable(svec, graph.Degree(s), tvec, graph.Degree(t), &g);
  return RunAmcT<UnitWeight>(graph, walker, s, t,
                             AmcWalkTable{g, TopTwo(svec), TopTwo(tvec)},
                             params, rng);
}

/// The standalone AMC competitor: refined ℓ (Eq. 6) + Alg. 1 with one-hot
/// inputs, returning r_f + 1_{s≠t}(1/w(s)+1/w(t)).
template <WeightPolicy WP>
class AmcEstimatorT : public ErEstimator {
 public:
  using GraphT = typename WP::GraphT;

  explicit AmcEstimatorT(const GraphT& graph, ErOptions options = {});
  // Stores a pointer to `graph`; a temporary would dangle.
  explicit AmcEstimatorT(GraphT&&, ErOptions = {}) = delete;

  std::string Name() const override {
    return std::string(WP::kNamePrefix) + "AMC";
  }
  QueryStats EstimateWithStats(NodeId s, NodeId t) override;

  std::unique_ptr<ErEstimator> CloneForBatch() const override {
    ErOptions opt = options_;
    opt.lambda = lambda_;  // clones never re-run Lanczos
    return std::make_unique<AmcEstimatorT<WP>>(*graph_, opt);
  }

  /// Dynamic-graph hook: repoints at the new snapshot, rebuilds the walk
  /// sampler, re-derives λ (epoch.lambda or Lanczos) and resizes the
  /// walk table.
  using ErEstimator::RebindGraph;
  bool RebindGraph(const GraphT& graph, const GraphEpoch& epoch) override;

  std::uint64_t IncrementalRebinds() const override {
    return incremental_rebinds_.load(std::memory_order_relaxed);
  }

  double lambda() const { return lambda_; }

 private:
  const GraphT* graph_;
  ErOptions options_;
  double lambda_;
  WalkerFor<WP> walker_;
  // The walk table of the one-hot inputs e_s, e_t: all zeros between
  // queries; a query sets g(s) = 1/w(s), g(t) = −1/w(t) and clears them.
  Vector walk_table_;
  std::atomic<std::uint64_t> incremental_rebinds_{0};
};

/// The two stacks, by their historical names.
using AmcEstimator = AmcEstimatorT<UnitWeight>;
using WeightedAmcEstimator = AmcEstimatorT<EdgeWeight>;

extern template AmcRunResult RunAmcT<UnitWeight>(
    const Graph&, const Walker&, NodeId, NodeId, const AmcWalkTable&,
    const AmcParams&, Rng&);
extern template AmcRunResult RunAmcT<EdgeWeight>(
    const WeightedGraph&, const WeightedWalker&, NodeId, NodeId,
    const AmcWalkTable&, const AmcParams&, Rng&);
extern template class AmcEstimatorT<UnitWeight>;
extern template class AmcEstimatorT<EdgeWeight>;

}  // namespace geer

#endif  // GEER_CORE_AMC_H_
