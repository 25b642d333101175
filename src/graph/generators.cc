#include "graph/generators.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "graph/algorithms.h"
#include "graph/builder.h"
#include "rw/rng.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace geer {
namespace gen {
namespace {

// Packs an edge into a 64-bit key for dedup sets. Never 0: u ≠ v.
// Branch-free: for a random pair, whether u > v is a coin flip that a
// branch would mispredict half the time (R-MAT sampling ran ~15% slower).
inline std::uint64_t EdgeKey(NodeId u, NodeId v) {
  const NodeId flip = (u ^ v) & (0u - static_cast<NodeId>(u > v));
  return (static_cast<std::uint64_t>(u ^ flip) << 32) | (v ^ flip);
}

inline NodeId EdgeKeyU(std::uint64_t key) {
  return static_cast<NodeId>(key >> 32);
}
inline NodeId EdgeKeyV(std::uint64_t key) {
  return static_cast<NodeId>(key);
}

// The set of edge keys a generator has emitted, split into 2^bits parts
// by the top `bits` bits of a multiplicative hash of the key. Each part
// is a flat open-addressing table (power-of-two size, linear probing,
// load ≤ 1/2, 0 marking an empty slot) whose slots come from the hash
// bits below those; all parts share one array. Only membership is
// observable, so swapping it for any other set keeps every generated
// graph.
//
// Insert grows the set as it needs to. A parallel fill instead reserves
// room on the driving thread (Reserve), after which one thread per part
// may InsertReserved into it: the parts share no slot and no counter.
class EdgeKeySet {
 public:
  /// Sized for `expected` keys. A split hands each part about
  /// expected / parts ± √(expected / parts) of them, so a part gets room
  /// for four standard deviations over its share: without it, a share
  /// that is a power of two leaves no room, and the first part to pass
  /// half full doubles the whole table.
  explicit EdgeKeySet(std::uint64_t expected, int partition_bits = 0)
      : partition_bits_(partition_bits),
        sizes_(std::size_t{1} << partition_bits) {
    const std::uint64_t share = expected >> partition_bits;
    const std::uint64_t headroom =
        partition_bits == 0
            ? 0
            : 4 * static_cast<std::uint64_t>(
                      std::sqrt(static_cast<double>(share))) + 16;
    Rehash(std::bit_ceil(std::max<std::uint64_t>(16, 2 * (share + headroom))));
  }

  std::size_t num_parts() const { return sizes_.size(); }

  std::size_t PartOf(std::uint64_t key) const {
    return partition_bits_ == 0 ? 0 : Hash(key) >> (64 - partition_bits_);
  }

  std::uint64_t size() const {
    std::uint64_t total = 0;
    for (const PartSize& part : sizes_) total += part.keys;
    return total;
  }

  bool Contains(std::uint64_t key) const { return slots_[Find(key)] == key; }

  /// Adds `key`; true iff it was not present.
  bool Insert(std::uint64_t key) {
    const std::size_t part = PartOf(key);
    if (2 * (sizes_[part].keys + 1) > part_capacity_) {
      Rehash(2 * part_capacity_);
    }
    return InsertReserved(key);
  }

  /// Makes room for `more[p]` further keys in each part p.
  void Reserve(const std::vector<std::uint64_t>& more) {
    std::uint64_t capacity = part_capacity_;
    for (std::size_t p = 0; p < sizes_.size(); ++p) {
      while (2 * (sizes_[p].keys + more[p]) > capacity) capacity *= 2;
    }
    if (capacity != part_capacity_) Rehash(capacity);
  }

  /// Insert into room made by Reserve: never grows the set.
  bool InsertReserved(std::uint64_t key) {
    GEER_DCHECK(key != 0);
    const std::uint64_t slot = Find(key);
    if (slots_[slot] == key) return false;
    PartSize& part = sizes_[PartOf(key)];
    GEER_DCHECK(2 * (part.keys + 1) <= part_capacity_);
    slots_[slot] = key;
    ++part.keys;
    return true;
  }

 private:
  // A part's key count, on a cache line of its own: one thread per part
  // counts during a parallel fill.
  struct alignas(64) PartSize {
    std::uint64_t keys = 0;
  };

  static std::uint64_t Hash(std::uint64_t key) {
    return key * 0x9E3779B97F4A7C15ULL;
  }

  // The slot holding `key`, or the empty slot of its part where it
  // would go.
  std::uint64_t Find(std::uint64_t key) const {
    const std::uint64_t base = PartOf(key) * part_capacity_;
    std::uint64_t slot = (Hash(key) << partition_bits_) >> shift_;
    while (slots_[base + slot] != 0 && slots_[base + slot] != key) {
      slot = (slot + 1) & (part_capacity_ - 1);
    }
    return base + slot;
  }

  void Rehash(std::uint64_t part_capacity) {
    std::vector<std::uint64_t> old = std::move(slots_);
    part_capacity_ = part_capacity;
    slots_.assign(part_capacity * sizes_.size(), 0);
    shift_ = 64 - std::countr_zero(part_capacity);
    for (std::uint64_t key : old) {
      if (key != 0) slots_[Find(key)] = key;
    }
  }

  int partition_bits_;
  std::vector<PartSize> sizes_;
  std::vector<std::uint64_t> slots_;
  std::uint64_t part_capacity_ = 0;
  int shift_ = 64;
};

// R-MAT's team size: one thread per kAttemptsPerTeamThread attempts of
// the first round (target_edges of them), at most one per usable CPU.
// From two of these up, a helper paid for itself at every size measured
// (BM_RMatTeam; EXPERIMENTS.md, "Parallel R-MAT").
constexpr std::uint64_t kAttemptsPerTeamThread = 8192;

// Raw words one team thread samples per chunk: ~50 µs of sampling at
// scale 16, 1,024 attempts. Against 4× larger chunks this cut RMat(16, 3)
// by 10–30% on a shared VM, where one slow vCPU holds up a wave until
// the others have claimed its share (EXPERIMENTS.md, "Parallel R-MAT").
constexpr std::uint64_t kWordsPerChunk = std::uint64_t{1} << 15;

// Chunks per team thread in one wave of a round. A wave's keys are held
// until its dedupe pass, so the buffers stay O(threads × chunk).
constexpr std::uint64_t kChunksPerThreadPerWave = 8;

struct RMatQuadrants {
  std::uint32_t scale;
  double a, b, c, d;
};

// One R-MAT attempt: the edge key of the sampled pair, or 0 for a
// self-loop. Draws two NextDouble per level and nothing else, so every
// attempt takes exactly 2·scale words of the stream.
inline std::uint64_t SampleRMatAttempt(Rng& rng, const RMatQuadrants& q) {
  NodeId u = 0;
  NodeId v = 0;
  for (std::uint32_t bit = 0; bit < q.scale; ++bit) {
    const double p = rng.NextDouble();
    // Slightly perturb quadrant probabilities per level, the standard
    // trick to avoid exact-degree artifacts.
    const double noise = 0.95 + 0.1 * rng.NextDouble();
    const double aa = q.a * noise;
    const double bb = q.b * noise;
    const double cc = q.c * noise;
    const double total = aa + bb + cc + q.d * noise;
    // The quadrant is the first of top-left, top-right, bottom-left,
    // bottom-right whose threshold exceeds p. All three comparisons are
    // evaluated and combined into the two bits without branching on p:
    // u's bit is set past the first two thresholds, v's bit in the
    // second quadrant or past all three.
    const NodeId below1 = p < aa / total;
    const NodeId below2 = p < (aa + bb) / total;
    const NodeId below3 = p < (aa + bb + cc) / total;
    u = (u << 1) | ((below1 | below2) ^ 1);
    v = (v << 1) | ((below1 ^ 1) & (below2 | (below3 ^ 1)));
  }
  return u == v ? 0 : EdgeKey(u, v);
}

// The keys one part of R-MAT's dedupe set found new in a wave, on cache
// lines of their own: one thread per part appends to them.
struct alignas(64) FreshKeys {
  std::vector<std::uint64_t> keys;
};

// One chunk's sampled keys, grouped by part: keys[begin[p], begin[p + 1])
// are part p's, in sampling order. Sized once, on the caller.
struct RMatChunkKeys {
  std::vector<std::uint64_t> sampled;
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> begin;
  std::vector<std::uint32_t> cursor;

  void Resize(std::uint64_t attempts, std::size_t num_parts) {
    sampled.resize(attempts);
    keys.resize(attempts);
    begin.resize(num_parts + 1);
    cursor.resize(num_parts);
  }

  // Samples `attempts` attempts from `rng` (at most sampled.size()) and
  // groups their keys, self-loops dropped, by a counting sort on part.
  void Fill(Rng& rng, const RMatQuadrants& q, std::uint64_t attempts,
            const EdgeKeySet& seen) {
    std::uint64_t* out = sampled.data();
    std::size_t m = 0;
    for (std::uint64_t k = 0; k < attempts; ++k) {
      out[m] = SampleRMatAttempt(rng, q);
      m += out[m] != 0;
    }
    std::fill(begin.begin(), begin.end(), 0);
    for (std::size_t j = 0; j < m; ++j) ++begin[seen.PartOf(out[j]) + 1];
    for (std::size_t p = 1; p < begin.size(); ++p) begin[p] += begin[p - 1];
    std::copy(begin.begin(), begin.end() - 1, cursor.begin());
    for (std::size_t j = 0; j < m; ++j) {
      keys[cursor[seen.PartOf(out[j])]++] = out[j];
    }
  }
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
  const std::uint64_t max_attempts = target_edges * 8;
  const RMatQuadrants quadrants{scale, a, b, c, d};
  const std::uint64_t words_per_attempt = 2 * std::uint64_t{scale};
  const std::uint64_t chunk =
      std::max<std::uint64_t>(1, kWordsPerChunk / words_per_attempt);
  const int threads =
      ResolveWorkerCount(0, target_edges / kAttemptsPerTeamThread);
  // The dedupe set's parts: one for a lone thread, whose set would only
  // grow sooner if split (a part fills past half while the whole does
  // not), and 4–8 per thread in a team, so the dedupe pass balances.
  const int partition_bits = std::bit_width(4u * (threads - 1));
  Rng rng(seed);
  Graph g;
  {
    // Scoped so the dedupe set is freed before Build allocates, and the
    // recorded edges before LargestConnectedComponent does.
    GraphBuilder builder(n);
    // At most target_edges edges are recorded. Growing the record as
    // they come cost RMat(16, 3) 1.5–2 ms of ~7 at 4 CPUs.
    builder.Reserve(target_edges);
    {
      ThreadTeam team(threads);
      EdgeKeySet seen(target_edges, partition_bits);
      const std::size_t num_parts = seen.num_parts();
      // A wave samples up to wave_chunks chunks of attempts. Chunk i
      // samples attempts [i·chunk, (i + 1)·chunk) of the wave from its
      // own copy of the stream, jumped there from the previous chunk's
      // start, and groups its keys by part. Then each part's keys go into
      // the set, one thread per part, and the caller records the new
      // ones. Every buffer is allocated on the caller: memory a helper
      // allocates comes from its own malloc arena and stays resident
      // after the team is gone (batch_uniform's peak RSS rose 2–3 MiB).
      const Rng::JumpPolynomial chunk_jump =
          Rng::JumpPolynomialFor(chunk * words_per_attempt);
      const std::uint64_t wave_chunks =
          static_cast<std::uint64_t>(threads) * kChunksPerThreadPerWave;
      std::vector<Rng> starts(wave_chunks);
      std::vector<RMatChunkKeys> chunk_keys(wave_chunks);
      for (RMatChunkKeys& keys : chunk_keys) keys.Resize(chunk, num_parts);
      std::vector<std::uint64_t> incoming(num_parts);
      std::vector<FreshKeys> fresh(num_parts);
      auto run_wave = [&](std::uint64_t count) {
        const std::uint64_t chunks = (count + chunk - 1) / chunk;
        starts[0] = rng;
        for (std::uint64_t i = 1; i < chunks; ++i) {
          starts[i] = starts[i - 1];
          starts[i].Jump(chunk_jump);
        }
        team.ParallelFor(chunks, [&](int, std::size_t i) {
          Rng stream = starts[i];
          chunk_keys[i].Fill(stream, quadrants,
                             std::min(count - i * chunk, chunk), seen);
          if (i + 1 == chunks) rng = stream;  // the stream after the wave
        });
        for (std::size_t p = 0; p < num_parts; ++p) {
          incoming[p] = 0;
          for (std::uint64_t i = 0; i < chunks; ++i) {
            incoming[p] += chunk_keys[i].begin[p + 1] - chunk_keys[i].begin[p];
          }
          fresh[p].keys.clear();
          fresh[p].keys.reserve(incoming[p]);
        }
        seen.Reserve(incoming);
        team.ParallelFor(num_parts, [&](int, std::size_t p) {
          for (std::uint64_t i = 0; i < chunks; ++i) {
            const RMatChunkKeys& keys = chunk_keys[i];
            for (std::uint32_t j = keys.begin[p]; j < keys.begin[p + 1]; ++j) {
              if (seen.InsertReserved(keys.keys[j])) {
                fresh[p].keys.push_back(keys.keys[j]);
              }
            }
          }
        });
        for (const FreshKeys& part : fresh) {
          for (std::uint64_t key : part.keys) {
            builder.AddEdge(EdgeKeyU(key), EdgeKeyV(key));
          }
        }
      };
      // The serial loop runs attempts until it has target_edges distinct
      // edges or max_attempts attempts. Each attempt adds at most one
      // edge, so from `distinct` edges after `attempts` attempts it is
      // certain to run the next `round` attempts: their keys may go into
      // the set in any order, and only the count of new ones decides the
      // next round. Build ignores the order of the recorded edges.
      std::uint64_t distinct = 0;
      std::uint64_t attempts = 0;
      while (distinct < target_edges && attempts < max_attempts) {
        const std::uint64_t round =
            std::min(target_edges - distinct, max_attempts - attempts);
        for (std::uint64_t done = 0; done < round;) {
          const std::uint64_t count =
              std::min(round - done, wave_chunks * chunk);
          run_wave(count);
          done += count;
        }
        attempts += round;
        distinct = seen.size();
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
