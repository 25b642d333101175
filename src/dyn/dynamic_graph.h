// The dynamic-graph subsystem: versioned mutable graphs over the
// immutable CSR substrate every estimator runs on.
//
// A DynamicGraphT holds one PUBLISHED snapshot — a plain Graph /
// WeightedGraph behind a shared_ptr, so readers (estimators, the serving
// layer) keep using the exact representation they already understand —
// plus a pending delta of edge insertions / deletions / weight changes
// and an append-only log of every update ever applied. Commit() folds
// the pending delta into a NEW epoch-numbered snapshot with an
// incremental CSR rebuild: only the rows of touched vertices (endpoints
// of changed edges) are re-merged; every untouched row is block-copied
// from the previous snapshot's arrays. Readers holding the old snapshot
// are never disturbed — epochs are immutable once published.
//
// Correctness contract (dyn_consistency_test): after ANY update
// sequence, the committed snapshot's CSR arrays are identical to the
// arrays a from-scratch build from the final edge list produces
// (BuildFromScratch()), so every estimator — all 12 algorithms, both
// weight modes — answers bit-identically on the committed DynamicGraph
// and on the rebuilt graph. Updates carry absolute weights (SetWeight
// overwrites, never accumulates), so logically commuting updates applied
// in any order converge to the same floating-point arrays.
//
// Concurrency: one writer thread mutates and commits; Current() may be
// called from any thread (the published pointer sits behind a mutex).
// The epoch swap through the serving layer lives in dyn/dyn_serve.h.

#ifndef GEER_DYN_DYNAMIC_GRAPH_H_
#define GEER_DYN_DYNAMIC_GRAPH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "graph/weight_policy.h"
#include "rw/rng.h"

namespace geer {

/// One edge mutation in a dynamic-graph update stream.
enum class EdgeUpdateKind : std::uint8_t {
  kInsert,     ///< add edge {u, v} with `weight` (1.0 on unit-weight graphs)
  kDelete,     ///< remove edge {u, v}
  kSetWeight,  ///< overwrite the weight of existing edge {u, v} (weighted)
};

struct EdgeUpdate {
  EdgeUpdateKind kind = EdgeUpdateKind::kInsert;
  NodeId u = 0;
  NodeId v = 0;
  double weight = 1.0;

  friend bool operator==(const EdgeUpdate&, const EdgeUpdate&) = default;
};

/// One published epoch: an immutable graph plus the commit's footprint.
/// `touched` is the sorted list of vertices whose CSR rows differ from
/// the PREVIOUS epoch — exactly the invalidation set estimator caches
/// key on (core/estimator.h GraphEpoch).
template <WeightPolicy WP>
struct DynSnapshotT {
  using GraphT = typename WP::GraphT;

  std::uint64_t epoch = 0;
  std::shared_ptr<const GraphT> graph;
  std::vector<NodeId> touched;   ///< sorted rows rewritten vs epoch − 1
  bool resized = false;          ///< node count grew vs epoch − 1
  std::size_t num_updates = 0;   ///< log entries folded into this commit
};

/// A versioned mutable graph: published snapshot + pending delta + log.
template <WeightPolicy WP>
class DynamicGraphT {
 public:
  using GraphT = typename WP::GraphT;
  using Snapshot = DynSnapshotT<WP>;

  /// Publishes `initial` as epoch 0 (empty touched set).
  explicit DynamicGraphT(GraphT initial);

  DynamicGraphT(const DynamicGraphT&) = delete;
  DynamicGraphT& operator=(const DynamicGraphT&) = delete;

  // --- Pending-state mutators (single writer) -----------------------------

  /// Stages insertion of edge {u, v}. The edge must be absent from the
  /// pending view; self-loops and the reserved id 0xFFFFFFFF are
  /// rejected. Node ids beyond the current count grow the graph (new
  /// nodes start isolated). On unit-weight graphs `weight` must be 1.0.
  void InsertEdge(NodeId u, NodeId v, double weight = 1.0);

  /// Stages deletion of edge {u, v}, which must be present in the
  /// pending view.
  void DeleteEdge(NodeId u, NodeId v);

  /// Stages an absolute weight overwrite of the present edge {u, v}.
  /// Only meaningful on the EdgeWeight instantiation (unit-weight graphs
  /// accept only 1.0, a no-op).
  void SetWeight(NodeId u, NodeId v, double weight);

  /// Routes one logged update through the typed mutators.
  void Apply(const EdgeUpdate& update);

  // --- Pending view --------------------------------------------------------

  /// Edge presence in the pending (uncommitted) state.
  bool HasEdge(NodeId u, NodeId v) const;

  /// Pending-state weight of {u, v}; 0 if absent (1.0 for present edges
  /// of the unit-weight instantiation).
  double PendingWeight(NodeId u, NodeId v) const;

  /// Node count of the pending state (≥ the published snapshot's).
  NodeId NumNodes() const { return pending_num_nodes_; }

  /// Staged-but-uncommitted edge mutations.
  std::size_t PendingUpdates() const { return pending_.size(); }

  // --- Publication ---------------------------------------------------------

  /// Folds the pending delta into a new epoch via the incremental CSR
  /// rebuild and publishes it. With nothing pending, returns the current
  /// snapshot unchanged. Cost: O(n + m) array assembly dominated by
  /// block copies of untouched rows — no edge-list sort, no per-row
  /// re-sort of untouched rows (bench/dyn_update.cc quantifies the win
  /// over BuildFromScratch on small-touch batches).
  std::shared_ptr<const Snapshot> Commit();

  /// The currently published snapshot. Thread-safe.
  std::shared_ptr<const Snapshot> Current() const;

  /// Epoch of the published snapshot. Thread-safe.
  std::uint64_t Epoch() const;

  /// Oracle / baseline: builds the PENDING state from its full edge list
  /// through the ordinary builder (sort + dedup + per-row sort). The
  /// consistency suite asserts Commit() produces identical CSR arrays;
  /// the bench uses it as the full-rebuild baseline.
  GraphT BuildFromScratch() const;

  /// Append-only log of every update accepted so far (committed and
  /// pending).
  const std::vector<EdgeUpdate>& Log() const { return log_; }

 private:
  /// Pending override for one canonical (u < v) edge: the edge's new
  /// absolute weight, or nullopt for deletion.
  using Override = std::optional<double>;

  /// Presence/weight of {u, v} (canonical order enforced by callers).
  double LookupPending(NodeId u, NodeId v) const;

  std::shared_ptr<const Snapshot> published_;  // guarded by mu_
  mutable std::mutex mu_;

  // Writer-side state (no locking: single writer by contract).
  NodeId pending_num_nodes_ = 0;
  std::map<Edge, Override> pending_;  // canonical u < v keys, ordered
  std::vector<EdgeUpdate> log_;
  std::size_t committed_log_size_ = 0;  // log prefix already published
};

/// The two stacks, by the library's naming convention.
using DynamicGraph = DynamicGraphT<UnitWeight>;
using WeightedDynamicGraph = DynamicGraphT<EdgeWeight>;
using DynSnapshot = DynSnapshotT<UnitWeight>;
using WeightedDynSnapshot = DynSnapshotT<EdgeWeight>;

/// Deterministic update-stream generator for benches, tests and the CLI:
/// alternates insertions of fresh random non-edges with deletions and
/// (on weighted graphs) weight overwrites of edges THIS generator
/// previously inserted — original edges are never deleted, so a
/// connected input stays connected under any generated stream.
template <WeightPolicy WP>
class UpdateGeneratorT {
 public:
  /// Generates against `graph`'s pending view. The caller must apply
  /// each batch before requesting the next one.
  UpdateGeneratorT(const DynamicGraphT<WP>& graph, std::uint64_t seed)
      : graph_(&graph), rng_(MixSeed(seed, 0x44594eull /* "DYN" */)) {}
  // The generator reads the graph for its whole lifetime.
  UpdateGeneratorT(DynamicGraphT<WP>&&, std::uint64_t) = delete;

  /// The next `count` updates against the current pending state.
  std::vector<EdgeUpdate> NextBatch(std::size_t count);

 private:
  const DynamicGraphT<WP>* graph_;
  Rng rng_;
  std::vector<Edge> inserted_;  // generator-owned edges still present
};

using UpdateGenerator = UpdateGeneratorT<UnitWeight>;
using WeightedUpdateGenerator = UpdateGeneratorT<EdgeWeight>;

extern template class DynamicGraphT<UnitWeight>;
extern template class DynamicGraphT<EdgeWeight>;
extern template class UpdateGeneratorT<UnitWeight>;
extern template class UpdateGeneratorT<EdgeWeight>;

}  // namespace geer

#endif  // GEER_DYN_DYNAMIC_GRAPH_H_
