// Synthetic graph generators.
//
// These serve two roles: (1) deterministic families with closed-form
// effective resistances (path, cycle, complete, grid, …) used as oracles
// in tests; (2) random families (Barabási–Albert, R-MAT, Watts–Strogatz,
// Erdős–Rényi, SBM) that act as scaled stand-ins for the SNAP datasets the
// paper evaluates on (see EXPERIMENTS.md "Datasets" for the substitution
// rationale).
//
// All random generators take an explicit seed and are deterministic.

#ifndef GEER_GRAPH_GENERATORS_H_
#define GEER_GRAPH_GENERATORS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace geer {
namespace gen {

// ---------------------------------------------------------------------------
// Deterministic families (closed-form ER oracles; several are bipartite —
// wrap with EnsureNonBipartite before running walk-based estimators).
// ---------------------------------------------------------------------------

/// Path P_n: 0–1–…–(n−1). Bipartite. r(i,j) = |i−j|.
Graph Path(NodeId n);

/// Cycle C_n. Bipartite iff n even. r(i,j) = k(n−k)/n with k = hop distance.
Graph Cycle(NodeId n);

/// Complete graph K_n. r(u,v) = 2/n for all u ≠ v.
Graph Complete(NodeId n);

/// Star S_n: node 0 is the hub. Bipartite. r(0,leaf) = 1, r(leaf,leaf) = 2.
Graph Star(NodeId n);

/// rows×cols 4-neighbor grid. Bipartite.
Graph Grid(NodeId rows, NodeId cols);

/// Two K_k cliques joined by a length-`bridge` path (bridge ≥ 1).
/// The classic slow-mixing family; stresses the ℓ bound.
Graph Barbell(NodeId k, NodeId bridge);

/// Lollipop: a K_k clique with a length-`tail` path attached.
Graph Lollipop(NodeId k, NodeId tail);

/// Complete binary tree with `levels` levels (2^levels − 1 nodes).
/// Bipartite; tree ⇒ r(u,v) = hop distance.
Graph BalancedBinaryTree(std::uint32_t levels);

/// Complete bipartite graph K_{a,b} (nodes 0..a−1 vs a..a+b−1).
/// r(u,v) has closed forms used in tests.
Graph CompleteBipartite(NodeId a, NodeId b);

/// Connected caveman: `cliques` cliques of size `size` in a ring, adjacent
/// cliques joined by one edge.
Graph Caveman(NodeId cliques, NodeId size);

// ---------------------------------------------------------------------------
// Random families (SNAP-dataset substitutes).
// ---------------------------------------------------------------------------

/// Erdős–Rényi G(n, m): m distinct uniform edges (plus a Hamiltonian-cycle
/// backbone if `connect` to guarantee connectivity).
Graph ErdosRenyi(NodeId n, std::uint64_t m, std::uint64_t seed,
                 bool connect = true);

/// Barabási–Albert preferential attachment: each new node attaches
/// `edges_per_node` edges to existing nodes ∝ degree. Connected,
/// heavy-tailed, high clustering — the Facebook-like stand-in.
Graph BarabasiAlbert(NodeId n, NodeId edges_per_node, std::uint64_t seed);

/// Watts–Strogatz small world: ring lattice with `k` nearest neighbors a
/// side rewired with probability `beta`. Low-degree small-world — the
/// DBLP-like stand-in.
Graph WattsStrogatz(NodeId n, NodeId k, double beta, std::uint64_t seed);

/// R-MAT power-law generator (Chakrabarti et al.) over 2^scale nodes with
/// `edge_factor`·2^scale edges and quadrant probabilities (a,b,c).
/// The standard SNAP-scale social-graph substitute.
///
/// The graph is that of a serial loop: attempts drawn in stream order,
/// each kept if it is neither a self-loop nor a repeat, until
/// `edge_factor`·2^scale distinct edges or 8× that many attempts. Every
/// attempt draws exactly 2·scale words (two NextDouble per level, no
/// rejection), so attempt k starts at word 2·scale·k, and a thread can
/// start anywhere in the stream with Rng::Jump. Attempts run on a
/// ThreadTeam of one thread per 8,192 attempts of the first round, at
/// most one per CPU of the affinity mask; smaller graphs start no
/// thread. The CSR bytes are the serial loop's at every team size
/// (generators_test, graph_fingerprint_test).
Graph RMat(std::uint32_t scale, std::uint64_t edge_factor, std::uint64_t seed,
           double a = 0.57, double b = 0.19, double c = 0.19);

/// Stochastic block model: `blocks` blocks of `block_size` nodes, intra- /
/// inter-block edge probabilities p_in / p_out.
Graph StochasticBlockModel(NodeId blocks, NodeId block_size, double p_in,
                           double p_out, std::uint64_t seed);

/// The 11-node running-example graph of the paper's Fig. 2: query pair
/// (s,t) with d(s)=2, d(t)=7 and nodes v1..v9. Returns the graph and the
/// ids of s and t. (The exact toy topology is not fully specified in the
/// paper; this reconstruction matches the stated degrees and the path
/// growth pattern: s has 2 neighbors, t has 7.)
struct RunningExample {
  Graph graph;
  NodeId s = 0;
  NodeId t = 0;
};
RunningExample Fig2RunningExample();

}  // namespace gen
}  // namespace geer

#endif  // GEER_GRAPH_GENERATORS_H_
