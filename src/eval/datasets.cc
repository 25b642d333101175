#include "eval/datasets.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "util/check.h"
#include "util/format.h"

namespace geer {
namespace {

Graph Normalize(Graph g) {
  if (!IsConnected(g)) g = LargestConnectedComponent(g);
  if (IsBipartite(g)) g = EnsureNonBipartite(g);
  return g;
}

// Nearest power-of-two exponent for RMAT scaling.
std::uint32_t ScaleExponent(double nodes) {
  const double exponent = std::round(std::log2(std::max(nodes, 16.0)));
  return static_cast<std::uint32_t>(std::clamp(exponent, 4.0, 26.0));
}

}  // namespace

std::vector<std::string> DatasetNames() {
  return {"facebook", "dblp",        "youtube",
          "orkut",    "livejournal", "friendster"};
}

std::optional<Dataset> MakeDataset(const std::string& name, double scale) {
  GEER_CHECK(scale > 0.0);
  Dataset out;
  out.name = name;
  Graph g;
  if (name == "facebook") {
    // SNAP: 4,039 nodes / 88,234 edges, avg deg 43.7 → dense BA graph.
    const NodeId n = std::max<NodeId>(64, static_cast<NodeId>(4000 * scale));
    g = gen::BarabasiAlbert(n, 22, /*seed=*/0xFB);
    out.paper_nodes = 4039;
    out.paper_edges = 88234;
  } else if (name == "dblp") {
    // SNAP: 317k / 1.05M, avg deg 6.6 → low-degree small world.
    const NodeId n =
        std::max<NodeId>(128, static_cast<NodeId>(32768 * scale));
    g = gen::WattsStrogatz(n, 3, 0.2, /*seed=*/0xDB);
    out.paper_nodes = 317080;
    out.paper_edges = 1049866;
  } else if (name == "youtube") {
    // SNAP: 1.13M / 2.99M, avg deg 5.3 → sparse power-law R-MAT.
    g = gen::RMat(ScaleExponent(65536 * scale), 3, /*seed=*/0x17);
    out.paper_nodes = 1134890;
    out.paper_edges = 2987624;
  } else if (name == "orkut") {
    // SNAP: 3.07M / 117M, avg deg 76.3 → dense power-law R-MAT.
    g = gen::RMat(ScaleExponent(32768 * scale), 38, /*seed=*/0x02);
    out.paper_nodes = 3072441;
    out.paper_edges = 117185082;
  } else if (name == "livejournal") {
    // SNAP: 4.0M / 34.7M, avg deg 17.3.
    g = gen::RMat(ScaleExponent(65536 * scale), 9, /*seed=*/0x15);
    out.paper_nodes = 3997962;
    out.paper_edges = 34681189;
  } else if (name == "friendster") {
    // SNAP: 65.6M / 1.81B, avg deg 55.1 — the largest substitute.
    g = gen::RMat(ScaleExponent(131072 * scale), 28, /*seed=*/0xF5);
    out.paper_nodes = 65608366;
    out.paper_edges = 1806067135;
  } else {
    return std::nullopt;
  }
  out.graph = Normalize(std::move(g));
  out.spectral = ComputeSpectralBounds(out.graph);
  return out;
}

std::optional<Dataset> LoadDatasetFromFile(const std::string& path) {
  std::optional<Graph> g = LoadEdgeList(path);
  if (!g.has_value()) return std::nullopt;
  Dataset out;
  out.name = path;
  out.graph = Normalize(std::move(*g));
  out.spectral = ComputeSpectralBounds(out.graph);
  return out;
}

std::string DescribeDataset(const Dataset& dataset) {
  std::ostringstream os;
  os << dataset.name << ": n=" << FormatCount(dataset.graph.NumNodes())
     << " m=" << FormatCount(static_cast<std::int64_t>(
            dataset.graph.NumEdges()))
     << " avg-deg=" << FormatSig(dataset.graph.AverageDegree(), 3)
     << " lambda=" << FormatSig(dataset.spectral.lambda, 4)
     << " lanczos_it=" << dataset.spectral.lanczos_iterations << " ±"
     << FormatSig(dataset.spectral.lambda_residual, 2);
  if (dataset.paper_nodes != 0) {
    os << "  (stand-in for SNAP n="
       << FormatCount(static_cast<std::int64_t>(dataset.paper_nodes))
       << ", m="
       << FormatCount(static_cast<std::int64_t>(dataset.paper_edges)) << ")";
  }
  return os.str();
}

}  // namespace geer
