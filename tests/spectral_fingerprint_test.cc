// Golden spectral fingerprints: the exact bits of every λ the library
// derives, pinned per graph. The Lanczos run behind ComputeSpectralBounds
// may change how it stores or regenerates its Krylov basis, how the
// operator sums its rows, or how the tridiagonal bisections are ordered,
// never what it returns: every walk length ℓ, and through it every
// estimator answer, follows these bits.
//
// A cold (values-only) fingerprint is the hex-float (%a) text of
// λ, λ₂, λ_n, both certificate widths r_lo and r_hi, the iteration count,
// and a 64-bit hash of the two unit Ritz vectors the certificate was
// evaluated on. A warm fingerprint is the same text for the dynamic-epoch
// path, whose Ritz vectors feed the next epoch: one epoch that falls back
// to the seeded cold start, then one warm-started epoch on a graph with
// one more edge.
//
// The computation uses only IEEE-exact operations and the library's own
// RNG, but the pinned text is recorded for gcc only (as the work ledger's
// hashes are); other compiler families print their text and skip the
// comparison. A mismatch prints the new text; update a pinned value only
// for an intended change of λ.

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "eval/datasets.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/weighted_generators.h"
#include "linalg/lanczos.h"
#include "linalg/spectral.h"
#include "linalg/transition.h"

namespace geer {
namespace {

#if defined(__GNUC__) && !defined(__clang__)
constexpr bool kPinnedCompiler = true;
#else
constexpr bool kPinnedCompiler = false;
#endif

// FNV-1a over the bit patterns of both vectors, lengths included.
std::uint64_t VectorHash(const Vector& a, const Vector& b) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ULL;
  };
  for (const Vector* v : {&a, &b}) {
    mix(v->size());
    for (double e : *v) mix(std::bit_cast<std::uint64_t>(e));
  }
  return h;
}

std::string Text(const SpectralBounds& s, const LanczosResult& res) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "lambda=%a lambda2=%a lambda_n=%a r_lo=%a r_hi=%a it=%d "
                "ritz=0x%016" PRIx64,
                s.lambda, s.lambda2, s.lambda_n, res.residual_lo,
                res.residual_hi, res.iterations,
                VectorHash(res.max_ritz_vector, res.min_ritz_vector));
  return buf;
}

// The cold run exactly as ComputeSpectralBoundsT makes it, keeping the
// LanczosResult fields SpectralBounds drops (both widths, Ritz vectors).
template <WeightPolicy WP>
std::string ColdFingerprint(const typename WP::GraphT& graph) {
  const SpectralOptions defaults;
  NormalizedAdjacencyOperatorT<WP> op(graph);
  LanczosOptions lopt;
  lopt.max_iterations = defaults.max_iterations;
  lopt.tolerance = defaults.tolerance;
  lopt.seed = defaults.seed;
  auto apply = [&op](const Vector& x, Vector* y) { op.Apply(x, y); };
  const LanczosResult res =
      LanczosExtremeEigenvalues(apply, op.Dim(), {op.TopEigenvector()}, lopt);
  const SpectralBounds bounds = ComputeSpectralBoundsT<WP>(graph);
  // The library entry point runs the same computation.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(bounds.lambda2),
            std::bit_cast<std::uint64_t>(std::min(res.max_eigenvalue, 1.0)));
  EXPECT_EQ(bounds.lanczos_iterations, res.iterations);
  return Text(bounds, res);
}

std::string WarmText(const SpectralBounds& s, const SpectralWarmState& st) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "lambda=%a r=%a it=%d ritz=0x%016" PRIx64, s.lambda,
                s.lambda_residual, s.lanczos_iterations,
                VectorHash(st.max_ritz, st.min_ritz));
  return buf;
}

#define EXPECT_PINNED(actual, pinned)                                    \
  do {                                                                   \
    const std::string text_ = (actual);                                  \
    std::printf("  %s: %s\n", #actual, text_.c_str());                   \
    if (kPinnedCompiler) EXPECT_EQ(text_, std::string(pinned));          \
  } while (0)

Graph DatasetGraph(const std::string& name, double scale) {
  std::optional<Dataset> ds = MakeDataset(name, scale);
  GEER_CHECK(ds.has_value());
  return std::move(ds->graph);
}

// `graph` plus the edge (0, v) for the largest v not yet adjacent to 0.
Graph WithExtraEdge(const Graph& graph) {
  GraphBuilder b(graph.NumNodes());
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    for (NodeId v : graph.Neighbors(u)) {
      if (u < v) b.AddEdge(u, v);
    }
  }
  NodeId far = graph.NumNodes() - 1;
  while (graph.HasEdge(0, far)) --far;
  b.AddEdge(0, far);
  Graph out = b.Build();
  GEER_CHECK_EQ(out.NumArcs(), graph.NumArcs() + 2);
  return out;
}

TEST(SpectralFingerprintTest, FacebookDataset) {
  EXPECT_PINNED(ColdFingerprint<UnitWeight>(DatasetGraph("facebook", 0.05)),
                "lambda=0x1.1d57080424915p-2 lambda2=0x1.0ed21fd0b541dp-2 "
                "lambda_n=-0x1.1d57080424915p-2 r_lo=0x1.bd9479b9f2902p-41 "
                "r_hi=0x1.6df8fd012bfc3p-34 it=63 ritz=0x9c8a6588db34ef4e");
  EXPECT_PINNED(ColdFingerprint<UnitWeight>(DatasetGraph("facebook", 0.3)),
                "lambda=0x1.2c06fa146ab24p-2 lambda2=0x1.299384ad5ab01p-2 "
                "lambda_n=-0x1.2c06fa146ab24p-2 r_lo=0x1.e18c014d9c46bp-35 "
                "r_hi=0x1.83c22b622e17ap-34 it=117 ritz=0x95e0279b97ee0a6d");
  EXPECT_PINNED(ColdFingerprint<UnitWeight>(DatasetGraph("facebook", 1.0)),
                "lambda=0x1.2f99d4928fde5p-2 lambda2=0x1.2f99d4928fde5p-2 "
                "lambda_n=-0x1.2c9db476ec797p-2 r_lo=0x1.9cf6f3c2fdabp-34 "
                "r_hi=0x1.5f20771c9218cp-49 it=182 ritz=0x97a58265e544b43a");
}

TEST(SpectralFingerprintTest, DblpDataset) {
  EXPECT_PINNED(ColdFingerprint<UnitWeight>(DatasetGraph("dblp", 0.05)),
      "lambda=0x1.d8c6a7acd45e4p-1 lambda2=0x1.d8c6a7acd45e4p-1 "
      "lambda_n=-0x1.526549d639p-1 r_lo=0x1.1d42f4543e6c5p-35 "
      "r_hi=0x1.b56ef1bdcfdbep-34 it=151 ritz=0x57597e1dd36ee186");
  EXPECT_PINNED(ColdFingerprint<UnitWeight>(DatasetGraph("dblp", 0.3)),
      "lambda=0x1.dce91f68574e3p-1 lambda2=0x1.dce91f68574e3p-1 "
      "lambda_n=-0x1.5dfeb738a134fp-1 r_lo=0x1.ed9e929e56352p-38 "
      "r_hi=0x1.9e6745297787bp-34 it=254 ritz=0x7f9e8ddcb0421033");
  EXPECT_PINNED(ColdFingerprint<UnitWeight>(DatasetGraph("dblp", 1.0)),
      "lambda=0x1.e34dafc2324f2p-1 lambda2=0x1.e34dafc2324f2p-1 "
      "lambda_n=-0x1.664683915d721p-1 r_lo=0x1.cbacc87385a81p-45 "
      "r_hi=0x1.8d4dbb858826ap-34 it=195 ritz=0x13e3d0deed367363");
}

TEST(SpectralFingerprintTest, YoutubeDataset) {
  EXPECT_PINNED(ColdFingerprint<UnitWeight>(DatasetGraph("youtube", 0.05)),
                "lambda=0x1.8e3fc7af45c7p-1 lambda2=0x1.8e38af4e5c351p-1 "
                "lambda_n=-0x1.8e3fc7af45c7p-1 r_lo=0x1.786335737eafdp-34 "
                "r_hi=0x1.9d7ff2acb2327p-41 it=87 ritz=0x10490de09a8534b9");
  EXPECT_PINNED(ColdFingerprint<UnitWeight>(DatasetGraph("youtube", 0.3)),
                "lambda=0x1.ac82e63738037p-1 lambda2=0x1.ac80900cbb24ep-1 "
                "lambda_n=-0x1.ac82e63738037p-1 r_lo=0x1.85489212ce9abp-34 "
                "r_hi=0x1.4c88363b35598p-34 it=69 ritz=0x857359b3b0f56efc");
  EXPECT_PINNED(ColdFingerprint<UnitWeight>(DatasetGraph("youtube", 1.0)),
                "lambda=0x1.c7258d9156affp-1 lambda2=0x1.c72536053b1e8p-1 "
                "lambda_n=-0x1.c7258d9156affp-1 r_lo=0x1.a627d6724b601p-34 "
                "r_hi=0x1.e7b993c46c486p-35 it=90 ritz=0xaa97ec5ed1b97f30");
}

// The work ledger's fixtures (tests/work_ledger_test.cc) in both weight
// modes, and a weighted youtube stand-in with a 100× weight spread.
TEST(SpectralFingerprintTest, WorkLedgerErdosRenyi) {
  const Graph er = gen::ErdosRenyi(200, 1200, 9);
  EXPECT_PINNED(ColdFingerprint<UnitWeight>(er),
      "lambda=0x1.143a0149a6669p-1 lambda2=0x1.10816bea6b5c6p-1 "
      "lambda_n=-0x1.143a0149a6669p-1 r_lo=0x1.8fc2dc64e5b28p-34 "
      "r_hi=0x1.1ff94df3c8682p-34 it=61 ritz=0xffec946b425a329f");
  EXPECT_PINNED(
      ColdFingerprint<EdgeWeight>(gen::WithUniformWeights(er, 0.5, 2.0, 99)),
      "lambda=0x1.1f1a326dbbfp-1 lambda2=0x1.1f1a326dbbfp-1 "
      "lambda_n=-0x1.1bf8fff9ec8f9p-1 r_lo=0x1.9ba9d91087f07p-34 "
      "r_hi=0x1.6cbd69b8f25ffp-45 it=71 ritz=0x05e58b0a957294e5");
}

TEST(SpectralFingerprintTest, WeightedYoutube) {
  EXPECT_PINNED(ColdFingerprint<EdgeWeight>(gen::WithUniformWeights(
                    DatasetGraph("youtube", 0.3), 0.1, 10.0, 3)),
                "lambda=0x1.f677ab1cd50bfp-1 lambda2=0x1.f677922e078a9p-1 "
                "lambda_n=-0x1.f677ab1cd50bfp-1 r_lo=0x1.3e6ade5eb9306p-40 "
                "r_hi=0x1.50575a180dee4p-34 it=80 ritz=0x3ed872c5f9c6d7ca");
}

// The dynamic-epoch path: epoch 1 has no carried state and runs the
// seeded cold fallback, which records Ritz vectors; epoch 2 starts from
// them on a graph with one more edge and stops on stagnation.
TEST(SpectralFingerprintTest, WarmEpochChain) {
  const Graph g0 = DatasetGraph("youtube", 0.05);
  const Graph g1 = WithExtraEdge(g0);
  SpectralWarmState state;
  const SpectralBounds cold = ComputeSpectralBoundsWarmT<UnitWeight>(
      g0, 1, &state);
  ASSERT_TRUE(state.valid);
  EXPECT_PINNED(WarmText(cold, state),
      "lambda=0x1.8e3fc7ae89956p-1 r=0x1.377301e078df7p-55 it=300 "
      "ritz=0xb68d68b8ccbf0e2e");
  const SpectralBounds warm = ComputeSpectralBoundsWarmT<UnitWeight>(
      g1, 2, &state);
  EXPECT_PINNED(WarmText(warm, state),
      "lambda=0x1.8e3fc7aeec882p-1 r=0x1.b33ca6c133be4p-20 it=4 "
      "ritz=0x953fc2b8ffcc9f38");
}

TEST(SpectralFingerprintTest, WeightedWarmEpochChain) {
  const Graph skeleton = gen::ErdosRenyi(200, 1200, 9);
  const WeightedGraph g0 = gen::WithUniformWeights(skeleton, 0.5, 2.0, 99);
  const WeightedGraph g1 =
      gen::WithUniformWeights(WithExtraEdge(skeleton), 0.5, 2.0, 99);
  SpectralWarmState state;
  const SpectralBounds cold = ComputeSpectralBoundsWarmT<EdgeWeight>(
      g0, 1, &state);
  ASSERT_TRUE(state.valid);
  EXPECT_PINNED(WarmText(cold, state),
      "lambda=0x1.1f1a326dbbd99p-1 r=0x1.06312d34974edp-53 it=200 "
      "ritz=0x678f4107e4b095d2");
  const SpectralBounds warm = ComputeSpectralBoundsWarmT<EdgeWeight>(
      g1, 2, &state);
  EXPECT_PINNED(WarmText(warm, state),
      "lambda=0x1.211e954fd7b5ep-1 r=0x1.5e4d985593492p-21 it=33 "
      "ritz=0x01fad5e4c1eba5c4");
}

}  // namespace
}  // namespace geer
