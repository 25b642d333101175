#include "dyn/dynamic_graph.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "graph/builder.h"
#include "util/check.h"

namespace geer {
namespace {

Edge Canonical(NodeId u, NodeId v) {
  return u < v ? Edge{u, v} : Edge{v, u};
}

}  // namespace

template <WeightPolicy WP>
DynamicGraphT<WP>::DynamicGraphT(GraphT initial) {
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->graph = std::make_shared<const GraphT>(std::move(initial));
  pending_num_nodes_ = snapshot->graph->NumNodes();
  published_ = std::move(snapshot);
}

template <WeightPolicy WP>
double DynamicGraphT<WP>::LookupPending(NodeId u, NodeId v) const {
  const auto it = pending_.find(Canonical(u, v));
  if (it != pending_.end()) {
    return it->second.has_value() ? *it->second : 0.0;
  }
  const GraphT& graph = *published_->graph;
  if (u >= graph.NumNodes() || v >= graph.NumNodes()) return 0.0;
  return WP::EdgeConductance(graph, u, v);
}

template <WeightPolicy WP>
bool DynamicGraphT<WP>::HasEdge(NodeId u, NodeId v) const {
  return u != v && LookupPending(u, v) > 0.0;
}

template <WeightPolicy WP>
double DynamicGraphT<WP>::PendingWeight(NodeId u, NodeId v) const {
  return u == v ? 0.0 : LookupPending(u, v);
}

template <WeightPolicy WP>
void DynamicGraphT<WP>::InsertEdge(NodeId u, NodeId v, double weight) {
  GEER_CHECK(u != v) << "self-loops are not representable";
  // max(u, v) + 1 below must not wrap the node count to 0.
  GEER_CHECK(std::max(u, v) < std::numeric_limits<NodeId>::max())
      << "node id " << std::numeric_limits<NodeId>::max() << " is reserved";
  GEER_CHECK(std::isfinite(weight) && weight > 0.0)
      << "edge weight must be positive and finite, got " << weight;
  if constexpr (!WP::kWeighted) {
    GEER_CHECK_EQ(weight, 1.0) << "unit-weight graphs take weight 1 only";
  }
  GEER_CHECK(!HasEdge(u, v))
      << "InsertEdge(" << u << ", " << v << "): edge already present";
  pending_num_nodes_ = std::max(pending_num_nodes_,
                                static_cast<NodeId>(std::max(u, v) + 1));
  pending_[Canonical(u, v)] = weight;
  log_.push_back({EdgeUpdateKind::kInsert, u, v, weight});
}

template <WeightPolicy WP>
void DynamicGraphT<WP>::DeleteEdge(NodeId u, NodeId v) {
  GEER_CHECK(HasEdge(u, v))
      << "DeleteEdge(" << u << ", " << v << "): edge not present";
  const Edge key = Canonical(u, v);
  const GraphT& graph = *published_->graph;
  const bool in_snapshot = key.second < graph.NumNodes() &&
                           WP::EdgeConductance(graph, key.first,
                                               key.second) > 0.0;
  if (in_snapshot) {
    pending_[key] = std::nullopt;  // row rewrite drops the edge
  } else {
    pending_.erase(key);  // inserted-then-deleted: net no-op
  }
  log_.push_back({EdgeUpdateKind::kDelete, u, v, 0.0});
}

template <WeightPolicy WP>
void DynamicGraphT<WP>::SetWeight(NodeId u, NodeId v, double weight) {
  GEER_CHECK(std::isfinite(weight) && weight > 0.0)
      << "edge weight must be positive and finite, got " << weight;
  GEER_CHECK(HasEdge(u, v))
      << "SetWeight(" << u << ", " << v << "): edge not present";
  if constexpr (!WP::kWeighted) {
    // The only representable weight is 1, which the edge already has.
    GEER_CHECK_EQ(weight, 1.0) << "unit-weight graphs take weight 1 only";
    log_.push_back({EdgeUpdateKind::kSetWeight, u, v, weight});
    return;
  }
  pending_[Canonical(u, v)] = weight;
  log_.push_back({EdgeUpdateKind::kSetWeight, u, v, weight});
}

template <WeightPolicy WP>
void DynamicGraphT<WP>::Apply(const EdgeUpdate& update) {
  switch (update.kind) {
    case EdgeUpdateKind::kInsert:
      InsertEdge(update.u, update.v, update.weight);
      break;
    case EdgeUpdateKind::kDelete:
      DeleteEdge(update.u, update.v);
      break;
    case EdgeUpdateKind::kSetWeight:
      SetWeight(update.u, update.v, update.weight);
      break;
  }
}

template <WeightPolicy WP>
std::shared_ptr<const DynSnapshotT<WP>> DynamicGraphT<WP>::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_;
}

template <WeightPolicy WP>
std::uint64_t DynamicGraphT<WP>::Epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_->epoch;
}

template <WeightPolicy WP>
std::shared_ptr<const DynSnapshotT<WP>> DynamicGraphT<WP>::Commit() {
  const GraphT& old = *published_->graph;
  const NodeId old_n = old.NumNodes();
  const NodeId new_n = pending_num_nodes_;
  if (pending_.empty() && new_n == old_n) {
    // Nothing changed a row or the node count; fold any collapsed log
    // entries (insert-then-delete pairs) away so they are not counted
    // against a later commit.
    committed_log_size_ = log_.size();
    std::lock_guard<std::mutex> lock(mu_);
    return published_;
  }
  // Note: pending_ may be empty here with new_n > old_n (an inserted
  // edge to a fresh node was deleted again) — the commit then publishes
  // the pure node growth, keeping Commit() ≡ BuildFromScratch().
  const auto& old_offsets = old.Offsets();
  const auto& old_adj = old.NeighborArray();

  // Per-row delta of every touched vertex: (neighbor, override) with
  // override = new weight or nullopt for deletion. Both endpoints of a
  // changed edge are touched by construction.
  struct RowDelta {
    std::vector<std::pair<NodeId, Override>> ops;  // sorted by neighbor
    std::int64_t degree_delta = 0;
  };
  std::map<NodeId, RowDelta> deltas;
  for (const auto& [edge, override_w] : pending_) {
    const auto [u, v] = edge;
    const bool in_old =
        v < old_n && WP::EdgeConductance(old, u, v) > 0.0;
    std::int64_t degree_delta = 0;
    if (!override_w.has_value()) {
      GEER_DCHECK(in_old);
      degree_delta = -1;
    } else if (!in_old) {
      degree_delta = +1;
    }  // else: weight overwrite, degree unchanged
    deltas[u].ops.emplace_back(v, override_w);
    deltas[u].degree_delta += degree_delta;
    deltas[v].ops.emplace_back(u, override_w);
    deltas[v].degree_delta += degree_delta;
  }
  std::vector<NodeId> touched;
  touched.reserve(deltas.size());
  for (auto& [vertex, delta] : deltas) {
    std::sort(delta.ops.begin(), delta.ops.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    touched.push_back(vertex);
  }

  // New offsets in one prefix pass: untouched rows keep their old degree,
  // touched rows apply their delta.
  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(new_n) + 1, 0);
  {
    auto delta_it = deltas.begin();
    for (NodeId v = 0; v < new_n; ++v) {
      std::int64_t degree =
          v < old_n
              ? static_cast<std::int64_t>(old_offsets[v + 1] - old_offsets[v])
              : 0;
      if (delta_it != deltas.end() && delta_it->first == v) {
        degree += delta_it->second.degree_delta;
        ++delta_it;
      }
      GEER_DCHECK(degree >= 0);
      offsets[v + 1] = offsets[v] + static_cast<std::uint64_t>(degree);
    }
  }
  const std::uint64_t new_arcs = offsets[new_n];

  std::vector<NodeId> neighbors(new_arcs);
  std::vector<double> weights;
  if constexpr (WP::kWeighted) weights.resize(new_arcs);

  // Assemble rows: block-copy maximal runs of untouched rows (their new
  // offsets are the old ones plus a constant shift, so one copy moves
  // the whole run's arcs), merge each touched row against its delta.
  auto copy_untouched_run = [&](NodeId first, NodeId last) {
    if (first >= last) return;
    const std::uint64_t src_begin = old_offsets[first];
    const std::uint64_t src_end = old_offsets[last];
    std::copy(old_adj.begin() + static_cast<std::ptrdiff_t>(src_begin),
              old_adj.begin() + static_cast<std::ptrdiff_t>(src_end),
              neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[first]));
    if constexpr (WP::kWeighted) {
      const auto& old_weights = old.WeightArray();
      std::copy(
          old_weights.begin() + static_cast<std::ptrdiff_t>(src_begin),
          old_weights.begin() + static_cast<std::ptrdiff_t>(src_end),
          weights.begin() + static_cast<std::ptrdiff_t>(offsets[first]));
    }
  };
  auto merge_touched_row = [&](NodeId vertex, const RowDelta& delta) {
    std::uint64_t out = offsets[vertex];
    auto emit = [&](NodeId neighbor, [[maybe_unused]] double weight) {
      neighbors[out] = neighbor;
      if constexpr (WP::kWeighted) weights[out] = weight;
      ++out;
    };
    const std::uint64_t row_begin =
        vertex < old_n ? old_offsets[vertex] : old_adj.size();
    const std::uint64_t row_end =
        vertex < old_n ? old_offsets[vertex + 1] : old_adj.size();
    std::uint64_t k = row_begin;
    std::size_t d = 0;
    while (k < row_end || d < delta.ops.size()) {
      if (d == delta.ops.size() ||
          (k < row_end && old_adj[k] < delta.ops[d].first)) {
        // Unchanged arc.
        double w = 1.0;
        if constexpr (WP::kWeighted) w = old.WeightArray()[k];
        emit(old_adj[k], w);
        ++k;
        continue;
      }
      if (k < row_end && old_adj[k] == delta.ops[d].first) {
        // Deletion (skip the old arc) or weight overwrite.
        if (delta.ops[d].second.has_value()) {
          emit(delta.ops[d].first, *delta.ops[d].second);
        }
        ++k;
        ++d;
        continue;
      }
      // Insertion of an arc absent from the old row.
      GEER_DCHECK(delta.ops[d].second.has_value());
      emit(delta.ops[d].first, *delta.ops[d].second);
      ++d;
    }
    GEER_DCHECK(out == offsets[vertex + 1]);
  };

  NodeId run_start = 0;
  for (const auto& [vertex, delta] : deltas) {
    copy_untouched_run(run_start, std::min(vertex, old_n));
    merge_touched_row(vertex, delta);
    run_start = vertex + 1;
  }
  copy_untouched_run(std::min(run_start, old_n), old_n);
  // Rows in [old_n, new_n) without a delta are new isolated nodes —
  // empty by construction of `offsets`.

  auto make_graph = [&]() {
    if constexpr (WP::kWeighted) {
      return GraphT(std::move(offsets), std::move(neighbors),
                    std::move(weights));
    } else {
      return GraphT(std::move(offsets), std::move(neighbors));
    }
  };
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->epoch = published_->epoch + 1;
  snapshot->graph = std::make_shared<const GraphT>(make_graph());
  snapshot->touched = std::move(touched);
  snapshot->resized = new_n > old_n;
  snapshot->num_updates = log_.size() - committed_log_size_;

  pending_.clear();
  committed_log_size_ = log_.size();
  std::lock_guard<std::mutex> lock(mu_);
  published_ = snapshot;
  return snapshot;
}

template <WeightPolicy WP>
typename WP::GraphT DynamicGraphT<WP>::BuildFromScratch() const {
  const GraphT& old = *published_->graph;
  auto overridden = [&](NodeId u, NodeId v) {
    return pending_.find(Canonical(u, v)) != pending_.end();
  };
  if constexpr (WP::kWeighted) {
    WeightedGraphBuilder builder(pending_num_nodes_);
    for (const WeightedEdge& e : old.Edges()) {
      if (!overridden(e.u, e.v)) builder.AddEdge(e.u, e.v, e.weight);
    }
    for (const auto& [edge, override_w] : pending_) {
      if (override_w.has_value()) {
        builder.AddEdge(edge.first, edge.second, *override_w);
      }
    }
    return builder.Build();
  } else {
    GraphBuilder builder(pending_num_nodes_);
    for (const Edge& e : old.Edges()) {
      if (!overridden(e.first, e.second)) builder.AddEdge(e.first, e.second);
    }
    for (const auto& [edge, override_w] : pending_) {
      if (override_w.has_value()) builder.AddEdge(edge.first, edge.second);
    }
    return builder.Build();
  }
}

template <WeightPolicy WP>
std::vector<EdgeUpdate> UpdateGeneratorT<WP>::NextBatch(std::size_t count) {
  std::vector<EdgeUpdate> batch;
  batch.reserve(count);
  const NodeId n = graph_->NumNodes();
  GEER_CHECK_GE(n, 2u) << "update generation needs at least two nodes";
  // Batch-local view of edges this stream owns, so a batch is valid when
  // applied in order even though nothing is applied while generating.
  std::vector<Edge> inserted = inserted_;
  auto in_batch = [&batch](NodeId u, NodeId v) {
    for (const EdgeUpdate& op : batch) {
      if (Canonical(op.u, op.v) == Canonical(u, v)) return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t roll = rng_.NextBounded(4);
    if (!inserted.empty() && roll == 1) {
      // Delete a generator-owned edge: original edges are never removed,
      // so connectivity is preserved.
      const std::size_t pick = rng_.NextBounded(inserted.size());
      const Edge e = inserted[pick];
      inserted.erase(inserted.begin() + static_cast<std::ptrdiff_t>(pick));
      batch.push_back({EdgeUpdateKind::kDelete, e.first, e.second, 0.0});
      continue;
    }
    if constexpr (WP::kWeighted) {
      if (!inserted.empty() && roll == 2) {
        const Edge e = inserted[rng_.NextBounded(inserted.size())];
        const double w = 0.25 + 4.0 * rng_.NextDouble();
        batch.push_back({EdgeUpdateKind::kSetWeight, e.first, e.second, w});
        continue;
      }
    }
    // Insert a fresh non-edge (bounded retry; dense graphs may fail to
    // find one, in which case the batch just comes back shorter).
    bool placed = false;
    for (int attempt = 0; attempt < 64 && !placed; ++attempt) {
      const NodeId u = static_cast<NodeId>(rng_.NextBounded(n));
      const NodeId v = static_cast<NodeId>(rng_.NextBounded(n));
      if (u == v || graph_->HasEdge(u, v) || in_batch(u, v)) continue;
      double w = 1.0;
      if constexpr (WP::kWeighted) w = 0.25 + 4.0 * rng_.NextDouble();
      batch.push_back({EdgeUpdateKind::kInsert, u, v, w});
      inserted.push_back(Canonical(u, v));
      placed = true;
    }
  }
  inserted_ = std::move(inserted);
  return batch;
}

template class DynamicGraphT<UnitWeight>;
template class DynamicGraphT<EdgeWeight>;
template class UpdateGeneratorT<UnitWeight>;
template class UpdateGeneratorT<EdgeWeight>;

}  // namespace geer
