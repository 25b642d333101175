#include "embed/er_embedding.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <limits>

#include "graph/weight_policy.h"
#include "linalg/laplacian_solver.h"
#include "rw/rng.h"
#include "util/check.h"

namespace geer {
namespace {

// The one k formula: the explicit dimension, else ⌈24 ln n / ε²⌉. Kept
// in floating point so callers can bound it before converting to int.
double DimensionsAsDouble(NodeId num_nodes,
                          const ErEmbeddingOptions& options) {
  if (options.dimensions > 0) return options.dimensions;
  GEER_CHECK(options.epsilon > 0.0);
  const double n = std::max<double>(num_nodes, 2.0);
  return std::ceil(24.0 * std::log(n) / (options.epsilon * options.epsilon));
}

int CheckedDimensions(NodeId num_nodes, const ErEmbeddingOptions& options) {
  GEER_CHECK(ErEmbedding::Feasible(num_nodes, options))
      << "embedding table of " << ErEmbedding::TableBytes(num_nodes, options)
      << " bytes exceeds max_bytes";
  return ErEmbedding::DeriveDimensions(num_nodes, options);
}

// The Spielman–Srivastava sketch as a node-major n×k table: row j of
// Q W^{1/2} B has entry +q_e·√w_e at e's lower endpoint and −q_e·√w_e at
// the upper one, q_e = ±1/√k (√w_e ≡ 1 unweighted), drawn over the CSR
// arcs u < v; z = L⁺·row is column j of the table.
template <WeightPolicy WP>
std::vector<double> BuildTable(const typename WP::GraphT& graph, int k,
                               std::uint64_t seed) {
  const NodeId n = graph.NumNodes();
  std::vector<double> table(static_cast<std::size_t>(n) * k, 0.0);
  typename LaplacianSolverT<WP>::Options sopt;
  // The JL distortion already costs ε; solve well below it.
  sopt.tolerance = 1e-8;
  LaplacianSolverT<WP> solver(graph, sopt);
  Rng rng(seed ^ 0x9d2c5680cafef00dULL);
  const double scale = 1.0 / std::sqrt(static_cast<double>(k));
  const auto& offsets = graph.Offsets();
  const auto& adj = graph.NeighborArray();
  Vector row(n, 0.0);
  for (int j = 0; j < k; ++j) {
    std::fill(row.begin(), row.end(), 0.0);
    for (NodeId u = 0; u < n; ++u) {
      for (std::uint64_t a = offsets[u]; a < offsets[u + 1]; ++a) {
        const NodeId v = adj[a];
        if (u >= v) continue;
        const double magnitude = scale * std::sqrt(WP::ArcWeight(graph, a));
        const double q = rng.NextBernoulli(0.5) ? magnitude : -magnitude;
        row[u] += q;
        row[v] -= q;
      }
    }
    const Vector z = solver.Solve(row);
    for (NodeId v = 0; v < n; ++v) {
      table[static_cast<std::size_t>(v) * k + j] = z[v];
    }
  }
  return table;
}

// r̂ of every CSR arc u < v, which is Edges() order in both graph types.
template <typename GraphT>
std::vector<double> EdgeErs(const ErEmbedding& embedding,
                            const GraphT& graph) {
  GEER_CHECK_EQ(graph.NumNodes(), embedding.NumNodes());
  const auto& offsets = graph.Offsets();
  const auto& adj = graph.NeighborArray();
  std::vector<double> out;
  out.reserve(graph.NumEdges());
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    for (std::uint64_t a = offsets[u]; a < offsets[u + 1]; ++a) {
      if (u < adj[a]) out.push_back(embedding.PairwiseEr(u, adj[a]));
    }
  }
  return out;
}

}  // namespace

int ErEmbedding::DeriveDimensions(NodeId num_nodes,
                                  const ErEmbeddingOptions& options) {
  const double k = DimensionsAsDouble(num_nodes, options);
  return k < static_cast<double>(INT_MAX) ? static_cast<int>(k) : INT_MAX;
}

std::uint64_t ErEmbedding::TableBytes(NodeId num_nodes,
                                      const ErEmbeddingOptions& options) {
  const double bytes = DimensionsAsDouble(num_nodes, options) * num_nodes *
                       sizeof(double);
  return bytes < 0x1p64 ? static_cast<std::uint64_t>(bytes)
                        : std::numeric_limits<std::uint64_t>::max();
}

bool ErEmbedding::Feasible(NodeId num_nodes,
                           const ErEmbeddingOptions& options) {
  return DimensionsAsDouble(num_nodes, options) <= INT_MAX &&
         TableBytes(num_nodes, options) <= options.max_bytes;
}

ErEmbedding::ErEmbedding(const Graph& graph, ErEmbeddingOptions options)
    : num_nodes_(graph.NumNodes()),
      k_(CheckedDimensions(num_nodes_, options)),
      table_(BuildTable<UnitWeight>(graph, k_, options.seed)) {}

ErEmbedding::ErEmbedding(const WeightedGraph& graph,
                         ErEmbeddingOptions options)
    : num_nodes_(graph.NumNodes()),
      k_(CheckedDimensions(num_nodes_, options)),
      table_(BuildTable<EdgeWeight>(graph, k_, options.seed)) {}

double ErEmbedding::PairwiseEr(NodeId s, NodeId t) const {
  GEER_CHECK(s < num_nodes_);
  GEER_CHECK(t < num_nodes_);
  if (s == t) return 0.0;
  const double* zs = table_.data() + static_cast<std::size_t>(s) * k_;
  const double* zt = table_.data() + static_cast<std::size_t>(t) * k_;
  double acc = 0.0;
  for (int j = 0; j < k_; ++j) {
    const double diff = zs[j] - zt[j];
    acc += diff * diff;
  }
  return acc;
}

void ErEmbedding::SingleSource(NodeId s, Vector* out) const {
  GEER_CHECK(s < num_nodes_);
  out->assign(num_nodes_, 0.0);
  const double* zs = table_.data() + static_cast<std::size_t>(s) * k_;
  const double* row = table_.data();
  for (NodeId v = 0; v < num_nodes_; ++v, row += k_) {
    double acc = 0.0;
    for (int j = 0; j < k_; ++j) {
      const double diff = zs[j] - row[j];
      acc += diff * diff;
    }
    (*out)[v] = acc;
  }
  (*out)[s] = 0.0;
}

std::vector<ErNeighbor> ErEmbedding::TopKNearest(NodeId s,
                                                 std::size_t count) const {
  Vector er;
  SingleSource(s, &er);
  std::vector<ErNeighbor> all;
  all.reserve(num_nodes_ > 0 ? num_nodes_ - 1 : 0);
  for (NodeId v = 0; v < num_nodes_; ++v) {
    if (v != s) all.push_back({v, er[v]});
  }
  const std::size_t take = std::min(count, all.size());
  auto by_er = [](const ErNeighbor& a, const ErNeighbor& b) {
    return a.er != b.er ? a.er < b.er : a.node < b.node;
  };
  std::partial_sort(all.begin(), all.begin() + take, all.end(), by_er);
  all.resize(take);
  return all;
}

std::vector<double> ErEmbedding::AllEdgeEr(const Graph& graph) const {
  return EdgeErs(*this, graph);
}

std::vector<double> ErEmbedding::AllEdgeEr(const WeightedGraph& graph) const {
  return EdgeErs(*this, graph);
}

}  // namespace geer
