// Golden graph fingerprints: a 64-bit hash of (n, Offsets, NeighborArray)
// for every graph the datasets, the work ledger and the generators'
// tests build. Graph construction may change how it computes the CSR
// arrays, never what they hold: every λ, ℓ and estimator answer
// downstream depends on the exact adjacency order. A mismatch prints the
// new hash; update a pinned value only for an intended change of graph.
//
// The hash mixes integer values (not object bytes), so it is the same on
// every compiler and platform that builds the same graph.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "eval/datasets.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/io.h"

#ifndef GEER_TEST_DATA_DIR
#error "GEER_TEST_DATA_DIR must point at tests/data"
#endif

namespace geer {
namespace {

// FNV-1a over 64-bit words.
std::uint64_t Fingerprint(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ULL;
  };
  mix(g.NumNodes());
  for (std::uint64_t o : g.Offsets()) mix(o);
  for (NodeId v : g.NeighborArray()) mix(v);
  return h;
}

std::string Hex(std::uint64_t h) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, h);
  return buf;
}

#define EXPECT_FINGERPRINT(graph, pinned) \
  EXPECT_EQ(Hex(Fingerprint(graph)), std::string(pinned))

Graph DatasetGraph(const std::string& name, double scale) {
  std::optional<Dataset> ds = MakeDataset(name, scale);
  GEER_CHECK(ds.has_value());
  return std::move(ds->graph);
}

Graph LoadData(const std::string& file) {
  std::optional<Graph> g = LoadEdgeList(std::string(GEER_TEST_DATA_DIR) +
                                        "/" + file);
  GEER_CHECK(g.has_value()) << file;
  return std::move(*g);
}

TEST(GraphFingerprintTest, FacebookDataset) {
  EXPECT_FINGERPRINT(DatasetGraph("facebook", 0.05), "0x15e29dc4a2935f45");
  EXPECT_FINGERPRINT(DatasetGraph("facebook", 0.3), "0x7c3cc77c21a669eb");
  EXPECT_FINGERPRINT(DatasetGraph("facebook", 1.0), "0xd0ecdd4e77660b85");
}

TEST(GraphFingerprintTest, DblpDataset) {
  EXPECT_FINGERPRINT(DatasetGraph("dblp", 0.05), "0xeced343a21bc1b39");
  EXPECT_FINGERPRINT(DatasetGraph("dblp", 0.3), "0x6ac9876c41b24403");
  EXPECT_FINGERPRINT(DatasetGraph("dblp", 1.0), "0xc255ea3ae76e6525");
}

TEST(GraphFingerprintTest, YoutubeDataset) {
  EXPECT_FINGERPRINT(DatasetGraph("youtube", 0.05), "0x96d51c2a6c07489a");
  EXPECT_FINGERPRINT(DatasetGraph("youtube", 0.3), "0xc936544292195e3e");
  EXPECT_FINGERPRINT(DatasetGraph("youtube", 1.0), "0x9ec6211a4d0046df");
}

// The work ledger's fixture (tests/work_ledger_test.cc).
TEST(GraphFingerprintTest, WorkLedgerErdosRenyi) {
  EXPECT_FINGERPRINT(gen::ErdosRenyi(200, 1200, 9), "0x05e38c5f7f197ae1");
}

TEST(GraphFingerprintTest, SmallRandomFamilies) {
  EXPECT_FINGERPRINT(gen::BarabasiAlbert(300, 4, 5), "0x595a393902c3e2e3");
  EXPECT_FINGERPRINT(gen::WattsStrogatz(500, 3, 0.2, 7), "0xc42f0b50efcc616b");
  // β = 0.9 rewires most of the ring; the result goes through the
  // largest-component extraction.
  const Graph rewired = gen::WattsStrogatz(400, 1, 0.9, 11);
  EXPECT_LT(rewired.NumNodes(), 400u);
  EXPECT_FINGERPRINT(rewired, "0x04d584850c00ee8e");
  EXPECT_FINGERPRINT(gen::RMat(10, 9, 0x15), "0x3c46c6805ec8c7f4");
  EXPECT_FINGERPRINT(gen::RMat(11, 5, 0x2A), "0xf4b7bff34ea0f96c");
  const Graph sparse = gen::ErdosRenyi(300, 250, 3, /*connect=*/false);
  EXPECT_FALSE(IsConnected(sparse));
  EXPECT_FINGERPRINT(sparse, "0x424220fb7a352b63");
  EXPECT_FINGERPRINT(LargestConnectedComponent(sparse), "0x1d07e5325e883a7e");
  EXPECT_FINGERPRINT(EnsureNonBipartite(gen::Grid(6, 7)), "0x3113098c75b78071");
}

// Large enough for RMat's thread team (131,072 attempts in the first
// round): many chunks per thread over several waves and rounds.
TEST(GraphFingerprintTest, MultiChunkRMat) {
  EXPECT_FINGERPRINT(gen::RMat(14, 8, 0x51), "0x5e96ffa06255808c");
}

TEST(GraphFingerprintTest, EdgeListFiles) {
  EXPECT_FINGERPRINT(LoadData("triangle.txt"), "0xdb0f80ba9987c710");
  EXPECT_FINGERPRINT(LoadData("weighted_smoke.txt"), "0xe37ee362317ad008");
}

}  // namespace
}  // namespace geer
