#include "core/amc.h"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <vector>

#include "core/ell.h"
#include "core/spectral_epoch.h"
#include "linalg/spectral.h"
#include "stats/accumulator.h"
#include "stats/bounds.h"
#include "util/check.h"

namespace geer {
namespace {

// What every walk pair of one RunAmcT call reads. A step landing on u
// adds g[u] to Z_k on the s-walk and subtracts it on the t-walk.
struct PairWalkInputs {
  NodeId s;
  NodeId t;
  const double* g;
  std::uint32_t ell_f;
};

// Z_k of one walk pair drawn serially off `rng`: Alg. 1's loop body, the
// reference the lane kernel reproduces and its replay path.
template <typename WalkerT>
double SerialPairSample(const WalkerT& walker, const PairWalkInputs& in,
                        Rng& rng) {
  double z = 0.0;
  NodeId cur = in.s;
  for (std::uint32_t step = 0; step < in.ell_f; ++step) {
    cur = walker.Step(cur, rng);
    z += in.g[cur];
  }
  cur = in.t;
  for (std::uint32_t step = 0; step < in.ell_f; ++step) {
    cur = walker.Step(cur, rng);
    z -= in.g[cur];
  }
  return z;
}

// Writes Z_k of the next `lanes` ≤ kAmcLanes walk pairs of `rng`'s stream
// into z[0, lanes), bit-identical to `lanes` SerialPairSample calls and
// leaving `rng` where they would. `words` holds 2·ℓf·kWordsPerStep·lanes
// words of scratch. See the lockstep-lane note in core/amc.h.
template <typename WalkerT>
void SamplePairGroup(const WalkerT& walker, const PairWalkInputs& in,
                     std::uint32_t lanes, std::uint64_t* words, double* z,
                     Rng& rng) {
  const Rng snapshot = rng;
  const std::size_t walk_words =
      std::size_t{in.ell_f} * WalkerT::kWordsPerStep;
  // Drawn on a local copy: through the reference, every words[i] store
  // might alias the state and force a reload of it.
  Rng draw = snapshot;
  for (std::size_t i = 0; i < 2 * walk_words * lanes; ++i) {
    words[i] = draw.Next();
  }
  rng = draw;
  bool needs_more = false;
  const std::uint64_t* offsets = walker.graph().Offsets().data();
  const double* g = in.g;
  NodeId cur[kAmcLanes] = {};
  // Advances every lane's walk from `start` on its own words, lane j
  // reading words[2·j·walk_words + first_word + step·kWordsPerStep];
  // `t_walk` picks whether a step subtracts g at the node it lands on.
  const auto walk = [&](NodeId start, std::size_t first_word, auto t_walk) {
    std::fill(cur, cur + lanes, start);
    for (std::size_t word = first_word; word < first_word + walk_words;
         word += WalkerT::kWordsPerStep) {
      for (std::uint32_t j = 0; j < lanes; ++j) {
        const WordStep step =
            walker.StepFromWords(cur[j], words + 2 * j * walk_words + word);
        needs_more |= step.needs_more;
        cur[j] = step.next;
        // Lane j's next step starts at this row; fetch it while the
        // other lanes step.
        __builtin_prefetch(offsets + step.next);
        if constexpr (decltype(t_walk)::value) {
          z[j] -= g[step.next];
        } else {
          z[j] += g[step.next];
        }
      }
    }
  };
  std::fill(z, z + lanes, 0.0);
  walk(in.s, 0, std::false_type{});
  walk(in.t, walk_words, std::true_type{});
  if (!needs_more) return;
  // A Lemire rejection shifted the serial stream by a word: replay the
  // group serially from the snapshot.
  rng = snapshot;
  for (std::uint32_t j = 0; j < lanes; ++j) {
    z[j] = SerialPairSample(walker, in, rng);
  }
}

}  // namespace

std::uint64_t AmcFirstBatchSize(std::uint64_t eta_star, int tau) {
  const std::uint64_t eta = CeilToCount(static_cast<double>(eta_star) /
                                        std::pow(2.0, tau - 1));
  return std::max<std::uint64_t>(eta, 1);
}

double AmcPsi(std::uint32_t ell_f, double max1_s, double max2_s,
              double weight_s, double max1_t, double max2_t,
              double weight_t) {
  const double half_up = std::ceil(ell_f / 2.0);
  const double half_down = std::floor(ell_f / 2.0);
  return 2.0 * half_up * (max1_s / weight_s + max1_t / weight_t) +
         2.0 * half_down * (max2_s / weight_s + max2_t / weight_t);
}

void FillAmcWalkTable(const Vector& svec, double weight_s,
                      const Vector& tvec, double weight_t, Vector* table) {
  GEER_CHECK_EQ(svec.size(), tvec.size());
  const double inv_ws = 1.0 / weight_s;
  const double inv_wt = 1.0 / weight_t;
  table->resize(svec.size());
  double* g = table->data();
  const double* sv = svec.data();
  const double* tv = tvec.data();
  for (std::size_t v = 0; v < svec.size(); ++v) {
    g[v] = sv[v] * inv_ws - tv[v] * inv_wt;
  }
}

template <WeightPolicy WP>
AmcRunResult RunAmcT(const typename WP::GraphT& graph,
                     const WalkerFor<WP>& walker, NodeId s, NodeId t,
                     const AmcWalkTable& table, const AmcParams& params,
                     Rng& rng) {
  GEER_CHECK_NE(s, t);
  GEER_CHECK_EQ(table.g.size(), static_cast<std::size_t>(graph.NumNodes()));
  GEER_CHECK(params.epsilon > 0.0);
  GEER_CHECK(params.delta > 0.0 && params.delta < 1.0);
  GEER_CHECK_GE(params.tau, 1);

  AmcRunResult result;
  if (params.ell_f == 0) return result;  // q over an empty length range

  const double ws = WP::NodeWeight(graph, s);
  const double wt = WP::NodeWeight(graph, t);
  const double psi =
      AmcPsi(params.ell_f, table.s_top.first, table.s_top.second, ws,
             table.t_top.first, table.t_top.second, wt);
  result.psi = psi;
  if (psi <= 0.0) return result;  // |Z_k| ≤ ψ/2 = 0: q is exactly 0

  // Line 1: η* by Eq. (8), ψ by Eq. (9). Line 2: η ← ⌈η*/2^{τ−1}⌉.
  const std::uint64_t eta_star =
      AmcMaxSamples(params.epsilon, psi, params.delta, params.tau);
  result.eta_star = eta_star;
  std::uint64_t eta = AmcFirstBatchSize(eta_star, params.tau);

  const double per_batch_delta = params.delta / params.tau;
  MeanVarAccumulator acc;
  const PairWalkInputs inputs{s, t, table.g.data(), params.ell_f};
  std::vector<std::uint64_t> words(2 * std::size_t{params.ell_f} *
                                   WalkerFor<WP>::kWordsPerStep * kAmcLanes);
  double z[kAmcLanes] = {};

  const std::uint64_t pair_words =
      2 * std::uint64_t{params.ell_f} * WalkerFor<WP>::kWordsPerStep;
  double z_mean = 0.0;
  for (int batch = 1; batch <= params.tau; ++batch) {
    result.batches = batch;
    // Line 13 cannot fire on a batch whose zero-variance bound already
    // exceeds ε/2: sqrt(·) ≥ 0 and rounded + is monotone, so the bound on
    // the real variance is at least as large. Such a batch (never the
    // last) walks nothing; it only moves the Rng past its nominal words,
    // so later batches draw what they would have drawn.
    if (batch < params.tau &&
        EmpiricalBernsteinBound(eta, 0.0, psi, per_batch_delta) >
            params.epsilon / 2.0) {
      for (std::uint64_t k = 0; k < eta; ++k) rng.Discard(pair_words);
      eta *= 2;
      continue;
    }
    // Lines 4–12: fresh batch; previous samples are discarded. Walk S_k
    // from s and T_k from t, both of length ℓf, and accumulate
    //   Z_k = Σ_{u∈S_k} (s(u)/w(s) − t(u)/w(t))
    //       + Σ_{u∈T_k} (t(u)/w(t) − s(u)/w(s)),
    // kAmcLanes pairs at a time.
    acc.Reset();
    for (std::uint64_t k = 0; k < eta; k += kAmcLanes) {
      const auto lanes = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(kAmcLanes, eta - k));
      SamplePairGroup(walker, inputs, lanes, words.data(), z, rng);
      for (std::uint32_t j = 0; j < lanes; ++j) acc.Add(z[j]);
    }
    result.walks += 2 * eta;
    result.steps += 2 * eta * params.ell_f;
    z_mean = acc.Mean();
    // Line 13: Bernstein stopping rule. The shift Z' = Z + ψ/2 ∈ [0, ψ]
    // leaves the empirical variance unchanged, so f applies directly.
    const double bound = EmpiricalBernsteinBound(eta, acc.Variance(), psi,
                                                 per_batch_delta);
    if (bound <= params.epsilon / 2.0) {
      result.early_stop = batch < params.tau;
      break;
    }
    eta *= 2;  // Line 14.
  }
  result.r_f = z_mean;
  return result;
}

template <WeightPolicy WP>
AmcEstimatorT<WP>::AmcEstimatorT(const GraphT& graph, ErOptions options)
    : graph_(&graph),
      options_(options),
      walker_(graph),
      walk_table_(graph.NumNodes(), 0.0) {
  ValidateOptions(options_);
  lambda_ = options_.lambda.has_value()
                ? *options_.lambda
                : ComputeSpectralBoundsT<WP>(graph).lambda;
}

template <WeightPolicy WP>
bool AmcEstimatorT<WP>::RebindGraph(const GraphT& graph,
                                    const GraphEpoch& epoch) {
  graph_ = &graph;
  walker_ = WalkerFor<WP>(graph);
  // λ belongs to the graph, not the options: a stale construction-time
  // (or clone-baked) value would change walk lengths vs a fresh build.
  bool warm = false;
  lambda_ = RebindLambda<WP>(graph, epoch, &warm);
  if (warm) incremental_rebinds_.fetch_add(1, std::memory_order_relaxed);
  walk_table_.assign(graph.NumNodes(), 0.0);
  return true;
}

template <WeightPolicy WP>
QueryStats AmcEstimatorT<WP>::EstimateWithStats(NodeId s, NodeId t) {
  GEER_CHECK(s < graph_->NumNodes());
  GEER_CHECK(t < graph_->NumNodes());
  QueryStats stats;
  if (s == t) return stats;

  const double ws = WP::NodeWeight(*graph_, s);
  const double wt = WP::NodeWeight(*graph_, t);
  const std::uint32_t ell =
      options_.use_peng_ell
          ? PengEll(options_.epsilon, lambda_, options_.max_ell)
          : RefinedEllWeighted(options_.epsilon, lambda_, ws, wt,
                               options_.max_ell);
  stats.ell = ell;
  stats.truncated = EllWasTruncated(options_.epsilon, lambda_, ws, wt,
                                    options_.max_ell, options_.use_peng_ell);

  // e_s/w(s) − e_t/w(t): each entry equals its two-vector term
  // 1·(1/w(s)) − 0·(1/w(t)) or 0·(1/w(s)) − 1·(1/w(t)) exactly.
  walk_table_[s] = 1.0 / ws;
  walk_table_[t] = -(1.0 / wt);
  AmcParams params;
  params.epsilon = options_.epsilon;
  params.delta = options_.delta;
  params.tau = options_.tau;
  params.ell_f = ell;
  // Per-query deterministic stream: reordering queries never changes an
  // individual answer.
  Rng rng(options_.seed ^ (static_cast<std::uint64_t>(s) << 32) ^ t);
  constexpr std::pair<double, double> kOneHotTop{1.0, 0.0};
  AmcRunResult run = RunAmcT<WP>(
      *graph_, walker_, s, t,
      AmcWalkTable{walk_table_, kOneHotTop, kOneHotTop}, params, rng);
  walk_table_[s] = 0.0;
  walk_table_[t] = 0.0;

  // Theorem 3.4: add the i = 0 term 1_{s≠t}(1/w(s) + 1/w(t)).
  stats.value = run.r_f + 1.0 / ws + 1.0 / wt;
  stats.walks = run.walks;
  stats.walk_steps = run.steps;
  stats.eta_star = run.eta_star;
  stats.batches = run.batches;
  stats.early_stop = run.early_stop;
  return stats;
}

template AmcRunResult RunAmcT<UnitWeight>(const Graph&, const Walker&,
                                          NodeId, NodeId,
                                          const AmcWalkTable&,
                                          const AmcParams&, Rng&);
template AmcRunResult RunAmcT<EdgeWeight>(const WeightedGraph&,
                                          const WeightedWalker&, NodeId,
                                          NodeId, const AmcWalkTable&,
                                          const AmcParams&, Rng&);
template class AmcEstimatorT<UnitWeight>;
template class AmcEstimatorT<EdgeWeight>;

}  // namespace geer
