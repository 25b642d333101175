#include "graph/generators.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "graph/algorithms.h"
#include "graph/builder.h"
#include "rw/rng.h"
#include "util/check.h"

namespace geer {
namespace gen {
namespace {

// Packs an edge into a 64-bit key for dedup sets. Never 0: u ≠ v.
inline std::uint64_t EdgeKey(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

// The set of edge keys a generator has emitted: one flat open-addressing
// table (power-of-two size, linear probing, load ≤ 1/2), with 0 marking
// an empty slot. Only membership is observable, so swapping it for any
// other set keeps every generated graph.
class EdgeKeySet {
 public:
  explicit EdgeKeySet(std::uint64_t expected) {
    Rehash(std::bit_ceil(std::max<std::uint64_t>(16, 2 * expected)));
  }

  std::uint64_t size() const { return size_; }

  bool Contains(std::uint64_t key) const { return slots_[Find(key)] == key; }

  /// Adds `key`; true iff it was not present.
  bool Insert(std::uint64_t key) {
    GEER_DCHECK(key != 0);
    std::uint64_t slot = Find(key);
    if (slots_[slot] == key) return false;
    if (2 * (size_ + 1) > slots_.size()) {
      Rehash(2 * slots_.size());
      slot = Find(key);
    }
    slots_[slot] = key;
    ++size_;
    return true;
  }

 private:
  // The slot holding `key`, or the empty slot where it would go.
  std::uint64_t Find(std::uint64_t key) const {
    std::uint64_t slot = (key * 0x9E3779B97F4A7C15ULL) >> shift_;
    while (slots_[slot] != 0 && slots_[slot] != key) {
      slot = (slot + 1) & (slots_.size() - 1);
    }
    return slot;
  }

  void Rehash(std::uint64_t capacity) {
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(capacity, 0);
    shift_ = 64 - std::countr_zero(capacity);
    for (std::uint64_t key : old) {
      if (key != 0) slots_[Find(key)] = key;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::uint64_t size_ = 0;
  int shift_ = 64;
};

}  // namespace

Graph Path(NodeId n) {
  GEER_CHECK_GE(n, 1u);
  GraphBuilder builder(n);
  for (NodeId i = 0; i + 1 < n; ++i) builder.AddEdge(i, i + 1);
  return builder.Build();
}

Graph Cycle(NodeId n) {
  GEER_CHECK_GE(n, 3u);
  GraphBuilder builder(n);
  for (NodeId i = 0; i < n; ++i) builder.AddEdge(i, (i + 1) % n);
  return builder.Build();
}

Graph Complete(NodeId n) {
  GEER_CHECK_GE(n, 2u);
  GraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) builder.AddEdge(u, v);
  }
  return builder.Build();
}

Graph Star(NodeId n) {
  GEER_CHECK_GE(n, 2u);
  GraphBuilder builder(n);
  for (NodeId v = 1; v < n; ++v) builder.AddEdge(0, v);
  return builder.Build();
}

Graph Grid(NodeId rows, NodeId cols) {
  GEER_CHECK_GE(rows, 1u);
  GEER_CHECK_GE(cols, 1u);
  GraphBuilder builder(rows * cols);
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) builder.AddEdge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) builder.AddEdge(id(r, c), id(r + 1, c));
    }
  }
  return builder.Build();
}

Graph Barbell(NodeId k, NodeId bridge) {
  GEER_CHECK_GE(k, 3u);
  GEER_CHECK_GE(bridge, 1u);
  const NodeId n = 2 * k + bridge - 1;
  GraphBuilder builder(n);
  // Left clique: nodes [0, k).
  for (NodeId u = 0; u < k; ++u) {
    for (NodeId v = u + 1; v < k; ++v) builder.AddEdge(u, v);
  }
  // Right clique: nodes [k + bridge − 1, 2k + bridge − 1).
  const NodeId right = k + bridge - 1;
  for (NodeId u = right; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) builder.AddEdge(u, v);
  }
  // Bridge path from node k−1 through [k, k+bridge−1) to node `right`.
  NodeId prev = k - 1;
  for (NodeId i = k; i < right; ++i) {
    builder.AddEdge(prev, i);
    prev = i;
  }
  builder.AddEdge(prev, right);
  return builder.Build();
}

Graph Lollipop(NodeId k, NodeId tail) {
  GEER_CHECK_GE(k, 3u);
  GEER_CHECK_GE(tail, 1u);
  GraphBuilder builder(k + tail);
  for (NodeId u = 0; u < k; ++u) {
    for (NodeId v = u + 1; v < k; ++v) builder.AddEdge(u, v);
  }
  NodeId prev = k - 1;
  for (NodeId i = k; i < k + tail; ++i) {
    builder.AddEdge(prev, i);
    prev = i;
  }
  return builder.Build();
}

Graph BalancedBinaryTree(std::uint32_t levels) {
  GEER_CHECK_GE(levels, 1u);
  GEER_CHECK_LE(levels, 30u);
  const NodeId n = static_cast<NodeId>((1ULL << levels) - 1);
  GraphBuilder builder(n);
  for (NodeId v = 1; v < n; ++v) builder.AddEdge(v, (v - 1) / 2);
  return builder.Build();
}

Graph CompleteBipartite(NodeId a, NodeId b) {
  GEER_CHECK_GE(a, 1u);
  GEER_CHECK_GE(b, 1u);
  GraphBuilder builder(a + b);
  for (NodeId u = 0; u < a; ++u) {
    for (NodeId v = 0; v < b; ++v) builder.AddEdge(u, a + v);
  }
  return builder.Build();
}

Graph Caveman(NodeId cliques, NodeId size) {
  GEER_CHECK_GE(cliques, 2u);
  GEER_CHECK_GE(size, 3u);
  GraphBuilder builder(cliques * size);
  for (NodeId c = 0; c < cliques; ++c) {
    const NodeId base = c * size;
    for (NodeId u = 0; u < size; ++u) {
      for (NodeId v = u + 1; v < size; ++v) {
        builder.AddEdge(base + u, base + v);
      }
    }
    // Join to the next clique in the ring: last node of this clique to the
    // first node of the next.
    const NodeId next_base = ((c + 1) % cliques) * size;
    builder.AddEdge(base + size - 1, next_base);
  }
  return builder.Build();
}

Graph ErdosRenyi(NodeId n, std::uint64_t m, std::uint64_t seed,
                 bool connect) {
  GEER_CHECK_GE(n, 2u);
  const std::uint64_t max_edges =
      static_cast<std::uint64_t>(n) * (n - 1) / 2;
  GEER_CHECK_LE(m, max_edges) << "more edges than a simple graph allows";
  Rng rng(seed);
  GraphBuilder builder(n);
  {
    // Scoped so the dedupe table is freed before Build allocates.
    EdgeKeySet seen(m);
    if (connect) {
      // Hamiltonian-cycle backbone guarantees connectivity; its n edges
      // count toward the m-edge budget.
      for (NodeId i = 0; i < n; ++i) {
        NodeId j = (i + 1) % n;
        if (seen.Insert(EdgeKey(i, j))) builder.AddEdge(i, j);
      }
    }
    while (seen.size() < m && seen.size() < max_edges) {
      NodeId u = static_cast<NodeId>(rng.NextBounded(n));
      NodeId v = static_cast<NodeId>(rng.NextBounded(n));
      if (u == v) continue;
      if (seen.Insert(EdgeKey(u, v))) builder.AddEdge(u, v);
    }
  }
  return builder.Build();
}

Graph BarabasiAlbert(NodeId n, NodeId edges_per_node, std::uint64_t seed) {
  GEER_CHECK_GE(edges_per_node, 1u);
  GEER_CHECK_GT(n, edges_per_node);
  Rng rng(seed);
  GraphBuilder builder(n);
  // `targets` holds one entry per edge endpoint, so sampling uniformly
  // from it realizes preferential attachment ∝ degree.
  std::vector<NodeId> endpoint_pool;
  endpoint_pool.reserve(2ull * n * edges_per_node);
  // Seed core: a small clique over the first m0 = edges_per_node + 1 nodes.
  const NodeId m0 = edges_per_node + 1;
  for (NodeId u = 0; u < m0; ++u) {
    for (NodeId v = u + 1; v < m0; ++v) {
      builder.AddEdge(u, v);
      endpoint_pool.push_back(u);
      endpoint_pool.push_back(v);
    }
  }
  std::vector<NodeId> chosen;
  for (NodeId v = m0; v < n; ++v) {
    chosen.clear();
    while (chosen.size() < edges_per_node) {
      NodeId target =
          endpoint_pool[rng.NextBounded(endpoint_pool.size())];
      if (target == v ||
          std::find(chosen.begin(), chosen.end(), target) != chosen.end()) {
        continue;
      }
      chosen.push_back(target);
    }
    for (NodeId target : chosen) {
      builder.AddEdge(v, target);
      endpoint_pool.push_back(v);
      endpoint_pool.push_back(target);
    }
  }
  return builder.Build();
}

Graph WattsStrogatz(NodeId n, NodeId k, double beta, std::uint64_t seed) {
  GEER_CHECK_GE(n, 4u);
  GEER_CHECK_GE(k, 1u);
  GEER_CHECK_LT(2 * k, n);
  GEER_CHECK(beta >= 0.0 && beta <= 1.0);
  Rng rng(seed);
  GraphBuilder builder(n);
  {
    // Scoped so the dedupe table is freed before Build allocates.
    EdgeKeySet seen(static_cast<std::uint64_t>(n) * k);
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = 1; j <= k; ++j) {
        NodeId u = i;
        NodeId v = (i + j) % n;
        if (rng.NextBernoulli(beta)) {
          // Rewire the far endpoint uniformly (retry on collision/self).
          for (int attempt = 0; attempt < 32; ++attempt) {
            NodeId w = static_cast<NodeId>(rng.NextBounded(n));
            if (w == u) continue;
            if (seen.Contains(EdgeKey(u, w))) continue;
            v = w;
            break;
          }
        }
        if (seen.Insert(EdgeKey(u, v))) builder.AddEdge(u, v);
      }
    }
  }
  Graph g = builder.Build();
  // Rewiring can (rarely) disconnect the graph; keep the giant component
  // semantics identical to the SNAP preprocessing used by the paper.
  if (!IsConnected(g)) g = LargestConnectedComponent(g);
  return g;
}

Graph RMat(std::uint32_t scale, std::uint64_t edge_factor, std::uint64_t seed,
           double a, double b, double c) {
  GEER_CHECK_GE(scale, 2u);
  GEER_CHECK_LE(scale, 28u);
  const double d = 1.0 - a - b - c;
  GEER_CHECK(d > 0.0) << "RMAT quadrant probabilities must sum below 1";
  const NodeId n = static_cast<NodeId>(1u) << scale;
  const std::uint64_t target_edges = edge_factor * n;
  Rng rng(seed);
  Graph g;
  {
    // Scoped so the dedupe table is freed before Build allocates, and
    // the recorded edges before LargestConnectedComponent does.
    GraphBuilder builder(n);
    {
      EdgeKeySet seen(target_edges);
      std::uint64_t attempts = 0;
      const std::uint64_t max_attempts = target_edges * 8;
      while (seen.size() < target_edges && attempts < max_attempts) {
        ++attempts;
        NodeId u = 0;
        NodeId v = 0;
        for (std::uint32_t bit = 0; bit < scale; ++bit) {
          const double p = rng.NextDouble();
          // Slightly perturb quadrant probabilities per level, the
          // standard trick to avoid exact-degree artifacts.
          const double noise = 0.95 + 0.1 * rng.NextDouble();
          const double aa = a * noise;
          const double bb = b * noise;
          const double cc = c * noise;
          const double total = aa + bb + cc + d * noise;
          // The quadrant is the first of top-left, top-right, bottom-left,
          // bottom-right whose threshold exceeds p. All three comparisons
          // are evaluated and combined into the two bits without
          // branching on p: u's bit is set past the first two thresholds,
          // v's bit in the second quadrant or past all three.
          const NodeId below1 = p < aa / total;
          const NodeId below2 = p < (aa + bb) / total;
          const NodeId below3 = p < (aa + bb + cc) / total;
          u = (u << 1) | ((below1 | below2) ^ 1);
          v = (v << 1) | ((below1 ^ 1) & (below2 | (below3 ^ 1)));
        }
        if (u == v) continue;
        if (seen.Insert(EdgeKey(u, v))) builder.AddEdge(u, v);
      }
    }
    g = builder.Build();
  }
  return LargestConnectedComponent(g);
}

Graph StochasticBlockModel(NodeId blocks, NodeId block_size, double p_in,
                           double p_out, std::uint64_t seed) {
  GEER_CHECK_GE(blocks, 1u);
  GEER_CHECK_GE(block_size, 2u);
  GEER_CHECK(p_in > 0.0 && p_in <= 1.0);
  GEER_CHECK(p_out >= 0.0 && p_out <= 1.0);
  Rng rng(seed);
  const NodeId n = blocks * block_size;
  GraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      const bool same_block = (u / block_size) == (v / block_size);
      if (rng.NextBernoulli(same_block ? p_in : p_out)) {
        builder.AddEdge(u, v);
      }
    }
  }
  Graph g = builder.Build();
  if (!IsConnected(g)) g = LargestConnectedComponent(g);
  return g;
}

RunningExample Fig2RunningExample() {
  // Reconstruction of the paper's Fig. 2 toy graph: 11 nodes
  // {s, t, v1..v9}; d(s) = 2 (s–v1, s–v2), d(t) = 7. The vi's form a
  // sparse periphery so #paths from s stays small while #paths from t
  // explodes with length — the phenomenon the running example illustrates.
  // Node ids: s=0, t=1, v1..v9 = 2..10.
  GraphBuilder builder(11);
  const NodeId s = 0;
  const NodeId t = 1;
  auto v = [](NodeId i) { return static_cast<NodeId>(i + 1); };  // v(1)=2 …
  builder.AddEdge(s, v(1));
  builder.AddEdge(s, v(2));
  builder.AddEdge(t, v(1));
  builder.AddEdge(t, v(2));
  builder.AddEdge(t, v(3));
  builder.AddEdge(t, v(4));
  builder.AddEdge(t, v(5));
  builder.AddEdge(t, v(6));
  builder.AddEdge(t, v(7));
  builder.AddEdge(v(3), v(4));
  builder.AddEdge(v(5), v(6));
  builder.AddEdge(v(7), v(8));
  builder.AddEdge(v(8), v(9));
  RunningExample ex;
  ex.graph = builder.Build();
  ex.s = s;
  ex.t = t;
  GEER_CHECK_EQ(ex.graph.Degree(s), 2u);
  GEER_CHECK_EQ(ex.graph.Degree(t), 7u);
  return ex;
}

}  // namespace gen
}  // namespace geer
