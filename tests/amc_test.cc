#include "core/amc.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "core/smm.h"
#include "graph/generators.h"
#include "graph/weighted_generators.h"
#include "linalg/spectral.h"
#include "stats/accumulator.h"
#include "stats/bounds.h"
#include "test_util.h"

namespace geer {
namespace {

// Algorithm 1 one walk pair at a time, exactly as RunAmcT ran before its
// walks moved into lockstep lanes: the reference the lanes must match bit
// for bit.
template <WeightPolicy WP>
AmcRunResult SerialRunAmc(const typename WP::GraphT& graph,
                          const WalkerFor<WP>& walker, NodeId s, NodeId t,
                          const Vector& svec, const Vector& tvec,
                          const AmcParams& params, Rng& rng) {
  AmcRunResult result;
  if (params.ell_f == 0) return result;
  const double ws = WP::NodeWeight(graph, s);
  const double wt = WP::NodeWeight(graph, t);
  const double inv_ws = 1.0 / ws;
  const double inv_wt = 1.0 / wt;
  const auto [max1_s, max2_s] = TopTwo(svec);
  const auto [max1_t, max2_t] = TopTwo(tvec);
  const double psi =
      AmcPsi(params.ell_f, max1_s, max2_s, ws, max1_t, max2_t, wt);
  result.psi = psi;
  if (psi <= 0.0) return result;
  const std::uint64_t eta_star =
      AmcMaxSamples(params.epsilon, psi, params.delta, params.tau);
  result.eta_star = eta_star;
  std::uint64_t eta = static_cast<std::uint64_t>(std::ceil(
      static_cast<double>(eta_star) / std::pow(2.0, params.tau - 1)));
  if (eta == 0) eta = 1;
  MeanVarAccumulator acc;
  double z_mean = 0.0;
  for (int batch = 1; batch <= params.tau; ++batch) {
    acc.Reset();
    for (std::uint64_t k = 0; k < eta; ++k) {
      double z = 0.0;
      NodeId cur = s;
      for (std::uint32_t step = 0; step < params.ell_f; ++step) {
        cur = walker.Step(cur, rng);
        z += svec[cur] * inv_ws - tvec[cur] * inv_wt;
      }
      cur = t;
      for (std::uint32_t step = 0; step < params.ell_f; ++step) {
        cur = walker.Step(cur, rng);
        z += tvec[cur] * inv_wt - svec[cur] * inv_ws;
      }
      acc.Add(z);
    }
    result.walks += 2 * eta;
    result.steps += 2 * eta * params.ell_f;
    result.batches = batch;
    z_mean = acc.Mean();
    const double bound = EmpiricalBernsteinBound(
        eta, acc.Variance(), psi, params.delta / params.tau);
    if (bound <= params.epsilon / 2.0) {
      result.early_stop = batch < params.tau;
      break;
    }
    eta *= 2;
  }
  result.r_f = z_mean;
  return result;
}

// Runs RunAmcT and SerialRunAmc from copies of `start` and expects every
// output, and the next word of each Rng afterwards, to be bitwise equal.
// RunAmcT reads `table` when given (GEER's hand-off), else a table
// filled from svec, tvec with their scanned top-two. Returns the lane
// kernel's result so callers can check the case shape.
template <WeightPolicy WP>
AmcRunResult ExpectLanesMatchSerial(const typename WP::GraphT& graph,
                                    NodeId s, NodeId t, const Vector& svec,
                                    const Vector& tvec,
                                    const AmcParams& params,
                                    const Rng& start,
                                    const AmcWalkTable* table = nullptr) {
  const std::string mode(WP::kNamePrefix);
  const WalkerFor<WP> walker(graph);
  Vector g;
  FillAmcWalkTable(svec, WP::NodeWeight(graph, s), tvec,
                   WP::NodeWeight(graph, t), &g);
  const AmcWalkTable scanned{g, TopTwo(svec), TopTwo(tvec)};
  Rng lane_rng = start;
  Rng serial_rng = start;
  const AmcRunResult lane =
      RunAmcT<WP>(graph, walker, s, t, table != nullptr ? *table : scanned,
                  params, lane_rng);
  const AmcRunResult serial =
      SerialRunAmc<WP>(graph, walker, s, t, svec, tvec, params, serial_rng);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(lane.r_f),
            std::bit_cast<std::uint64_t>(serial.r_f))
      << mode << " r_f " << lane.r_f << " vs " << serial.r_f;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(lane.psi),
            std::bit_cast<std::uint64_t>(serial.psi))
      << mode;
  EXPECT_EQ(lane.eta_star, serial.eta_star) << mode;
  EXPECT_EQ(lane.walks, serial.walks) << mode;
  EXPECT_EQ(lane.steps, serial.steps) << mode;
  EXPECT_EQ(lane.batches, serial.batches) << mode;
  EXPECT_EQ(lane.early_stop, serial.early_stop) << mode;
  EXPECT_EQ(lane_rng.Next(), serial_rng.Next()) << mode;
  return lane;
}

// AMC's first-batch size η for these inputs, as RunAmcT derives it.
std::uint64_t FirstBatchSize(const Vector& svec, const Vector& tvec,
                             double ws, double wt, const AmcParams& params) {
  const auto [max1_s, max2_s] = TopTwo(svec);
  const auto [max1_t, max2_t] = TopTwo(tvec);
  const double psi =
      AmcPsi(params.ell_f, max1_s, max2_s, ws, max1_t, max2_t, wt);
  return AmcFirstBatchSize(
      AmcMaxSamples(params.epsilon, psi, params.delta, params.tau),
      params.tau);
}

// One lane-vs-serial check per weight policy, with the lane results and
// the first-batch sizes so a test can assert which case it covers.
struct LaneCase {
  AmcRunResult result[2];  // [unit weight, edge weight]
  std::uint64_t eta[2];
};

// Both weight modes on one topology, with GEER-like dense input vectors
// (so every step's contribution is a distinct double).
struct LaneFixture {
  LaneFixture()
      : graph(testing::DenseTestGraph(20)),
        weighted(gen::WithUniformWeights(graph, 0.5, 2.0, 5)),
        svec(graph.NumNodes()),
        tvec(graph.NumNodes()) {
    Rng vec_rng(3);
    for (double& v : svec) v = vec_rng.NextDouble();
    for (double& v : tvec) v = vec_rng.NextDouble();
  }

  LaneCase ExpectBoth(const AmcParams& params, const Rng& start) const {
    LaneCase out;
    out.result[0] = ExpectLanesMatchSerial<UnitWeight>(graph, kS, kT, svec,
                                                       tvec, params, start);
    out.result[1] = ExpectLanesMatchSerial<EdgeWeight>(weighted, kS, kT, svec,
                                                       tvec, params, start);
    out.eta[0] = FirstBatchSize(svec, tvec, graph.Degree(kS),
                                graph.Degree(kT), params);
    out.eta[1] = FirstBatchSize(svec, tvec, weighted.Strength(kS),
                                weighted.Strength(kT), params);
    return out;
  }

  static constexpr NodeId kS = 2;
  static constexpr NodeId kT = 13;
  Graph graph;
  WeightedGraph weighted;
  Vector svec;
  Vector tvec;
};

TEST(AmcLaneKernelTest, EtaBelowLaneCount) {
  const LaneFixture f;
  AmcParams params;
  params.epsilon = 3.0;
  params.delta = 0.1;
  params.tau = 2;
  params.ell_f = 5;
  const LaneCase c = f.ExpectBoth(params, Rng(11));
  for (int mode = 0; mode < 2; ++mode) EXPECT_LT(c.eta[mode], kAmcLanes);
}

TEST(AmcLaneKernelTest, EtaNotMultipleOfLaneCount) {
  const LaneFixture f;
  AmcParams params;
  params.epsilon = 0.8;
  params.delta = 0.05;
  params.tau = 3;
  params.ell_f = 6;
  const LaneCase c = f.ExpectBoth(params, Rng(12));
  for (int mode = 0; mode < 2; ++mode) {
    EXPECT_GT(c.eta[mode], kAmcLanes);
    EXPECT_NE(c.eta[mode] % kAmcLanes, 0u);
  }
}

TEST(AmcLaneKernelTest, SingleStepWalks) {
  const LaneFixture f;
  AmcParams params;
  params.epsilon = 0.3;
  params.delta = 0.05;
  params.tau = 3;
  params.ell_f = 1;
  const LaneCase c = f.ExpectBoth(params, Rng(13));
  for (int mode = 0; mode < 2; ++mode) {
    EXPECT_EQ(c.result[mode].steps, c.result[mode].walks);
  }
}

TEST(AmcLaneKernelTest, MultiBatchWithoutEarlyStop) {
  const LaneFixture f;
  AmcParams params;
  params.epsilon = 1.5;
  params.delta = 0.05;
  params.tau = 3;
  params.ell_f = 7;
  const LaneCase c = f.ExpectBoth(params, Rng(14));
  for (int mode = 0; mode < 2; ++mode) {
    EXPECT_EQ(c.result[mode].batches, params.tau) << "mode " << mode;
    EXPECT_FALSE(c.result[mode].early_stop) << "mode " << mode;
  }
}

TEST(AmcLaneKernelTest, RejectedWordRewindsAndReplaysSerially) {
  // xoshiro256++ outputs rotl(s0 + s3, 23) + s0, so a state with
  // s0 = s3 = 0 draws the word 0 first: pair 0's first s-step. For a
  // degree d that is not a power of two, 2^64 mod d > 0 and Lemire
  // rejects x = 0 (low word 0) — the serial Step draws one more word.
  const LaneFixture f;
  const Walker walker(f.graph);
  const WeightedWalker weighted_walker(f.weighted);
  const std::uint64_t zero_words[2] = {0, 0};
  ASSERT_TRUE(walker.StepFromWords(LaneFixture::kS, zero_words).needs_more);
  ASSERT_TRUE(
      weighted_walker.StepFromWords(LaneFixture::kS, zero_words).needs_more);
  const Rng start = Rng::FromState(0, 0x0123456789abcdefULL,
                                   0xfedcba9876543210ULL, 0);
  EXPECT_EQ(Rng(start).Next(), 0u);
  AmcParams params;
  params.epsilon = 0.8;
  params.delta = 0.05;
  params.tau = 3;
  params.ell_f = 6;
  f.ExpectBoth(params, start);
}

TEST(AmcLaneKernelTest, ZeroTableEntriesFromEqualScaledMass) {
  // s = 2 and t = 5 both have degree 9 in the fixture, and with constant
  // conductance also equal strength, so equal s- and t-entries give table
  // entries of exactly 0: a t-walk step then subtracts +0 where the
  // two-vector form adds 0 − 0. Half the nodes are shared this way; with
  // every node shared, every Z_k and r_f are exactly +0.
  const Graph graph = testing::DenseTestGraph(20);
  const WeightedGraph weighted = gen::WithUniformWeights(graph, 1.5, 1.5, 1);
  constexpr NodeId kS = 2;
  constexpr NodeId kT = 5;
  ASSERT_EQ(graph.Degree(kS), graph.Degree(kT));
  ASSERT_EQ(weighted.Strength(kS), weighted.Strength(kT));
  Rng vec_rng(8);
  Vector svec(graph.NumNodes());
  Vector tvec(graph.NumNodes());
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    svec[v] = vec_rng.NextDouble();
    tvec[v] = v % 2 == 0 ? svec[v] : vec_rng.NextDouble();
  }
  tvec[3] = svec[3] = 0.0;  // a shared zero too
  AmcParams params;
  params.epsilon = 0.8;
  params.delta = 0.05;
  params.tau = 3;
  params.ell_f = 6;
  ExpectLanesMatchSerial<UnitWeight>(graph, kS, kT, svec, tvec, params,
                                     Rng(21));
  ExpectLanesMatchSerial<EdgeWeight>(weighted, kS, kT, svec, tvec, params,
                                     Rng(21));
  const AmcRunResult all_shared[2] = {
      ExpectLanesMatchSerial<UnitWeight>(graph, kS, kT, svec, svec, params,
                                         Rng(22)),
      ExpectLanesMatchSerial<EdgeWeight>(weighted, kS, kT, svec, svec,
                                         params, Rng(22))};
  for (const AmcRunResult& r : all_shared) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.r_f), 0u);
    EXPECT_GT(r.walks, 0u);
  }
}

// GEER's hand-off at ℓ_b: the SMM iterates after `ell_b` steps, their
// table filled as the estimator fills it and their top-two as the
// iterate streams report it, against the two-vector serial reference.
template <WeightPolicy WP>
AmcRunResult ExpectSmmHandOffMatchesSerial(const typename WP::GraphT& graph,
                                           std::uint32_t ell_b,
                                           const AmcParams& params,
                                           const Rng& start) {
  constexpr NodeId kS = 2;
  constexpr NodeId kT = 13;
  TransitionOperatorT<WP> op(graph);
  SmmIteratorT<WP> smm(graph, &op, kS, kT);
  for (std::uint32_t i = 0; i < ell_b; ++i) smm.Advance();
  Vector g;
  FillAmcWalkTable(smm.svec(), WP::NodeWeight(graph, kS), smm.tvec(),
                   WP::NodeWeight(graph, kT), &g);
  const AmcWalkTable table{g, smm.s_top_two(), smm.t_top_two()};
  return ExpectLanesMatchSerial<WP>(graph, kS, kT, smm.svec(), smm.tvec(),
                                    params, start, &table);
}

TEST(AmcLaneKernelTest, SmmIteratesAtEllB1And2) {
  const LaneFixture f;
  AmcParams params;
  params.epsilon = 0.1;
  params.delta = 0.05;
  params.tau = 3;
  params.ell_f = 5;
  for (std::uint32_t ell_b : {1u, 2u}) {
    const AmcRunResult unit = ExpectSmmHandOffMatchesSerial<UnitWeight>(
        f.graph, ell_b, params, Rng(30 + ell_b));
    const AmcRunResult edge = ExpectSmmHandOffMatchesSerial<EdgeWeight>(
        f.weighted, ell_b, params, Rng(30 + ell_b));
    EXPECT_GT(unit.walks, 2 * kAmcLanes) << "l_b " << ell_b;
    EXPECT_GT(edge.walks, 2 * kAmcLanes) << "l_b " << ell_b;
  }
}

TEST(AmcBoundsTest, MaxSamplesSaturates) {
  // 2ψ²log(2τ/δ)/ε² ≈ 1.4e31 at ε = 1e-9: past 2^64, where a plain cast
  // is undefined.
  EXPECT_EQ(AmcMaxSamples(1e-9, 1e3, 0.01, 5), UINT64_MAX);
  EXPECT_EQ(HoeffdingSampleCount(1e-12, 1e3, 0.01), UINT64_MAX);
  // Below 2^64 the count is exact.
  EXPECT_EQ(AmcMaxSamples(0.5, 0.25, 0.5, 1),
            static_cast<std::uint64_t>(
                std::ceil(2.0 * 0.0625 * std::log(4.0) / 0.25)));
}

TEST(AmcBoundsTest, FirstBatchSizeSaturates) {
  // η* = UINT64_MAX rounds up to 2^64 as a double: τ = 1 must not cast it.
  EXPECT_EQ(AmcFirstBatchSize(UINT64_MAX, 1), UINT64_MAX);
  EXPECT_EQ(AmcFirstBatchSize(UINT64_MAX, 2), 1ull << 63);
  EXPECT_EQ(AmcFirstBatchSize(100, 3), 25u);
  EXPECT_EQ(AmcFirstBatchSize(101, 3), 26u);
  EXPECT_EQ(AmcFirstBatchSize(1, 10), 1u);
}

TEST(AmcPsiTest, OneHotMatchesClosedForm) {
  // With e_s, e_t inputs: ψ = 2⌈ℓ/2⌉(1/ds + 1/dt).
  const double psi = AmcPsi(9, 1.0, 0.0, 4, 1.0, 0.0, 8);
  EXPECT_NEAR(psi, 2.0 * 5.0 * (0.25 + 0.125), 1e-12);
}

TEST(AmcPsiTest, EvenLengthSplitsHalves) {
  const double psi = AmcPsi(10, 0.5, 0.25, 2, 0.5, 0.25, 2);
  // 2·5·(0.25+0.25) + 2·5·(0.125+0.125).
  EXPECT_NEAR(psi, 5.0 + 2.5, 1e-12);
}

TEST(AmcPsiTest, FlatVectorsShrinkPsi) {
  // GEER's effect: flat iterates (max ≈ 0.1) vs one-hot (max = 1).
  const double onehot = AmcPsi(20, 1.0, 0.0, 4, 1.0, 0.0, 4);
  const double flat = AmcPsi(20, 0.1, 0.1, 4, 0.1, 0.1, 4);
  EXPECT_LT(flat, 0.25 * onehot);
}

TEST(AmcZkBoundTest, SampleValuesWithinPsiOverTwo) {
  // Lemma 3.3 ⇒ |Z_k| ≤ ψ/2. Verify empirically on random inputs.
  Graph g = testing::DenseTestGraph(14);
  Rng vec_rng(3);
  Vector svec(g.NumNodes());
  Vector tvec(g.NumNodes());
  for (auto& v : svec) v = vec_rng.NextDouble();
  for (auto& v : tvec) v = vec_rng.NextDouble();
  const NodeId s = 0;
  const NodeId t = 9;
  const auto [m1s, m2s] = TopTwo(svec);
  const auto [m1t, m2t] = TopTwo(tvec);
  const std::uint32_t ell = 7;
  const double psi =
      AmcPsi(ell, m1s, m2s, g.Degree(s), m1t, m2t, g.Degree(t));
  Walker walker(g);
  Rng rng(4);
  const double inv_ds = 1.0 / g.Degree(s);
  const double inv_dt = 1.0 / g.Degree(t);
  for (int k = 0; k < 5000; ++k) {
    double z = 0.0;
    NodeId cur = s;
    for (std::uint32_t i = 0; i < ell; ++i) {
      cur = walker.Step(cur, rng);
      z += svec[cur] * inv_ds - tvec[cur] * inv_dt;
    }
    cur = t;
    for (std::uint32_t i = 0; i < ell; ++i) {
      cur = walker.Step(cur, rng);
      z += tvec[cur] * inv_dt - svec[cur] * inv_ds;
    }
    ASSERT_LE(std::abs(z), psi / 2.0 + 1e-12);
  }
}

TEST(RunAmcTest, ZeroLengthReturnsZero) {
  Graph g = gen::Complete(6);
  Vector e0(6, 0.0);
  Vector e1(6, 0.0);
  e0[0] = 1.0;
  e1[1] = 1.0;
  AmcParams params;
  params.ell_f = 0;
  Rng rng(1);
  AmcRunResult res = RunAmc(g, 0, 1, e0, e1, params, rng);
  EXPECT_DOUBLE_EQ(res.r_f, 0.0);
  EXPECT_EQ(res.walks, 0u);
}

TEST(RunAmcTest, UnbiasedForQst) {
  // E[r_f] = q(s,t) = r_ℓ(s,t) − (1/ds + 1/dt). Average many runs.
  Graph g = testing::DenseTestGraph(12);
  const NodeId s = 0;
  const NodeId t = 7;
  const std::uint32_t ell = 6;
  // Exact q via SMM partial sums.
  TransitionOperator op(g);
  SmmIterator iter(g, &op, s, t);
  for (std::uint32_t i = 0; i < ell; ++i) iter.Advance();
  const double q_exact = iter.rb() - (1.0 / g.Degree(s) + 1.0 / g.Degree(t));

  Vector es(g.NumNodes(), 0.0);
  Vector et(g.NumNodes(), 0.0);
  es[s] = 1.0;
  et[t] = 1.0;
  AmcParams params;
  params.epsilon = 0.3;
  params.delta = 0.1;
  params.tau = 3;
  params.ell_f = ell;
  MeanVarWelford mean_of_runs;
  for (std::uint64_t rep = 0; rep < 40; ++rep) {
    Rng rng(1000 + rep);
    mean_of_runs.Add(RunAmc(g, s, t, es, et, params, rng).r_f);
  }
  EXPECT_NEAR(mean_of_runs.Mean(), q_exact, 0.03);
}

TEST(RunAmcTest, RespectsEtaStarCap) {
  Graph g = testing::DenseTestGraph(12);
  Vector es(g.NumNodes(), 0.0);
  Vector et(g.NumNodes(), 0.0);
  es[0] = 1.0;
  et[5] = 1.0;
  AmcParams params;
  params.epsilon = 0.2;
  params.delta = 0.01;
  params.tau = 5;
  params.ell_f = 8;
  Rng rng(2);
  AmcRunResult res = RunAmc(g, 0, 5, es, et, params, rng);
  // Total walk pairs over all batches < 2η* ⇒ walks < 4η*.
  EXPECT_LT(res.walks, 4 * res.eta_star);
  EXPECT_GE(res.batches, 1);
  EXPECT_LE(res.batches, params.tau);
}

TEST(RunAmcTest, EarlyStopOnLowVariance) {
  // Constant input vectors with equal-degree endpoints make every Z_k
  // exactly 0 (the s- and t-walk contributions cancel per step), so the
  // empirical variance is 0 while ψ — computed from the vector maxima —
  // stays large. Hoeffding then demands far more samples than Bernstein:
  // η* ≈ 2ψ²log(2τ/δ)/ε² vs the variance-free 6ψ log(3τ/δ)/ε, and the
  // Bernstein rule must fire batches before the η* cap.
  Graph g = gen::Complete(30);  // all degrees 29
  const double c = 29.0;        // ψ = 2(⌈2⌉+⌊2⌋)·(2c/29) = 16
  Vector sv(g.NumNodes(), c);
  Vector tv(g.NumNodes(), c);
  AmcParams params;
  params.epsilon = 0.4;
  params.delta = 0.01;
  params.tau = 6;
  params.ell_f = 4;
  Rng rng(3);
  AmcRunResult res = RunAmc(g, 0, 1, sv, tv, params, rng);
  EXPECT_DOUBLE_EQ(res.r_f, 0.0);
  EXPECT_TRUE(res.early_stop);
  EXPECT_LT(res.batches, params.tau);
  EXPECT_LT(res.walks, res.eta_star);  // the whole point of adaptivity
}

TEST(AmcEstimatorTest, WithinEpsilonHighProbability) {
  Graph g = testing::DenseTestGraph(16);
  for (double eps : {0.5, 0.2}) {
    ErOptions opt;
    opt.epsilon = eps;
    opt.delta = 0.01;
    AmcEstimator amc(g, opt);
    int failures = 0;
    const std::pair<NodeId, NodeId> pairs[] = {{0, 8}, {1, 9}, {2, 12}};
    for (auto [s, t] : pairs) {
      const double truth = testing::ExactEr(g, s, t);
      if (std::abs(amc.Estimate(s, t) - truth) > eps) ++failures;
    }
    EXPECT_EQ(failures, 0) << "eps=" << eps;
  }
}

TEST(AmcEstimatorTest, SameNodeZero) {
  // Regression: passing a temporary graph left the estimator with a
  // dangling pointer (caught by ASan); now rejected at compile time.
  Graph g = gen::Complete(8);
  AmcEstimator amc(g);
  EXPECT_DOUBLE_EQ(amc.Estimate(3, 3), 0.0);
}

TEST(AmcEstimatorTest, DeterministicPerSeedAndPair) {
  Graph g = testing::DenseTestGraph(12);
  ErOptions opt;
  opt.epsilon = 0.3;
  opt.seed = 99;
  AmcEstimator a(g, opt);
  AmcEstimator b(g, opt);
  EXPECT_DOUBLE_EQ(a.Estimate(0, 5), b.Estimate(0, 5));
  // Answer independent of any earlier queries on the same estimator.
  AmcEstimator c(g, opt);
  c.Estimate(1, 2);
  EXPECT_DOUBLE_EQ(c.Estimate(0, 5), a.Estimate(0, 5));
}

TEST(AmcEstimatorTest, FewerWalksThanTpTheory) {
  // The Remark in §3.3.2: AMC's sample count is far below TP's
  // 40ℓ³ln(8ℓ/δ)/ε² for the same ε.
  Graph g = testing::DenseTestGraph(20);
  ErOptions opt;
  opt.epsilon = 0.2;
  AmcEstimator amc(g, opt);
  QueryStats stats = amc.EstimateWithStats(0, 10);
  const double ell = stats.ell;
  const double tp_walks = 40.0 * ell * ell * ell *
                          std::log(8.0 * ell / opt.delta) /
                          (opt.epsilon * opt.epsilon);
  EXPECT_LT(static_cast<double>(stats.walks), tp_walks / 10.0);
}

}  // namespace
}  // namespace geer
