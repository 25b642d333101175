// The one node-keyed session cache behind every estimator that retains
// per-node state across queries: SMM/GEER iterate streams {P^j e_x}, TP
// walk populations, TPC per-side walk populations, and EXACT/CG solver
// columns. NodeStateCache layers onto LruByteCache what those caches
// have in common: the landmark set (landmark entries are pinned when a
// query creates or looks them up), get-or-create and lookup-only access, byte
// re-accounting between queries, and epoch invalidation.
// SessionCachedEstimator then implements ErEstimator's session hooks
// once for all of them.
//
// Payload contract:
//   std::size_t ApproxBytes() const;
//       Resident bytes, re-read for every entry touched since the last
//       Sweep().
//   bool DependsOn(std::span<const NodeId> touched) const;  (optional)
//       True iff the payload read a row in `touched`. An epoch swap
//       evicts exactly those entries. A payload without DependsOn
//       depends on the whole graph, so every epoch flushes it.
//
// Keys are NodeIds, or structs whose `node` member names the node (TPC
// keys a population by node and side).

#ifndef GEER_CORE_NODE_STATE_CACHE_H_
#define GEER_CORE_NODE_STATE_CACHE_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/estimator.h"
#include "util/check.h"
#include "util/lru_byte_cache.h"

namespace geer {

template <typename Key, typename Payload, typename Hash = std::hash<Key>>
class NodeStateCache {
 public:
  static constexpr std::size_t kDefaultBudgetBytes = 64ull << 20;

  /// `budget_bytes` = 0 picks the 64 MB default. A landmark's entry
  /// (each must be < `num_nodes`) is pinned (budget-exempt) whenever
  /// GetOrCreate or Insert reaches it: when a query first builds it, and
  /// again when it is rebuilt after an epoch swap evicted it. A nonzero
  /// `num_nodes` also bounds every key's node (checked in debug builds).
  explicit NodeStateCache(std::size_t budget_bytes = 0,
                          std::span<const NodeId> landmarks = {},
                          NodeId num_nodes = 0)
      : lru_(budget_bytes == 0 ? kDefaultBudgetBytes : budget_bytes) {
    SetLandmarks(landmarks, num_nodes);
  }
  bool IsLandmark(NodeId node) const {
    return node < is_landmark_.size() && is_landmark_[node] != 0;
  }

  /// The resident entry (bumped to most recently used, counted as a hit)
  /// or nullptr (a miss). Never creates and never pins.
  Payload* Find(const Key& key) {
    CheckKey(key);
    Payload* hit = lru_.Find(key);
    if (hit != nullptr) dirty_.push_back(key);
    return hit;
  }

  /// The resident entry (a hit) or a new one from `make()` (a miss).
  /// Pins landmark entries either way. Never evicts: the caller may hold
  /// other entries' pointers until Sweep().
  template <typename Make>
  Payload* GetOrCreate(const Key& key, Make&& make) {
    CheckKey(key);
    Payload* payload = lru_.GetOrCreate(key, std::forward<Make>(make));
    if (IsLandmark(NodeOf(key))) lru_.Pin(key);
    dirty_.push_back(key);
    return payload;
  }

  /// Retains a payload built outside the cache, replacing any entry for
  /// `key`. A non-landmark payload larger than the whole budget is not
  /// admitted: it would evict everything else and then itself.
  void Insert(const Key& key, Payload payload) {
    CheckKey(key);
    const std::size_t bytes = payload.ApproxBytes();
    const bool pinned = IsLandmark(NodeOf(key));
    if (!pinned && bytes > lru_.budget_bytes()) return;
    lru_.Insert(key, std::move(payload), bytes, pinned);
  }

  /// Re-accounts every entry touched since the last Sweep, then evicts
  /// least-recently-used unpinned entries over budget. Call between
  /// queries, with no entry pointers outstanding.
  void Sweep() {
    for (const Key& key : dirty_) {
      if (const Payload* payload = lru_.Peek(key)) {
        lru_.SetBytes(key, payload->ApproxBytes());
      }
    }
    dirty_.clear();
    lru_.EvictOverBudget();
  }

  /// Epoch invalidation. Flushes everything when the node count changed
  /// or the payload depends on the whole graph; otherwise evicts exactly
  /// the entries that DependsOn(epoch.touched), pinned ones included
  /// (they re-pin when rebuilt). Returns true iff entries were retained
  /// selectively.
  bool Rebind(const GraphEpoch& epoch) {
    dirty_.clear();
    if constexpr (requires(const Payload& p, std::span<const NodeId> t) {
                    p.DependsOn(t);
                  }) {
      if (!epoch.resized) {
        lru_.EvictIf([&epoch](const Key&, const Payload& payload) {
          return payload.DependsOn(epoch.touched);
        });
        return true;
      }
    }
    lru_.Clear();
    return false;
  }

  /// Drops every entry. hits/misses/evictions persist.
  void Clear() {
    dirty_.clear();
    lru_.Clear();
  }

  /// Clear, then re-key: a new landmark set over `num_nodes` nodes, for
  /// an epoch that renumbered the nodes the entries are keyed by.
  void Reset(std::span<const NodeId> landmarks, NodeId num_nodes) {
    Clear();
    SetLandmarks(landmarks, num_nodes);
  }

  std::size_t budget_bytes() const { return lru_.budget_bytes(); }
  CacheStats stats() const { return lru_.stats(); }

 private:
  void SetLandmarks(std::span<const NodeId> landmarks, NodeId num_nodes) {
    num_nodes_ = num_nodes;
    is_landmark_.clear();
    if (landmarks.empty()) return;
    is_landmark_.assign(num_nodes, 0);
    for (const NodeId lm : landmarks) {
      GEER_CHECK(lm < num_nodes);
      is_landmark_[lm] = 1;
    }
  }
  void CheckKey(const Key& key) const {
    GEER_DCHECK(num_nodes_ == 0 || NodeOf(key) < num_nodes_)
        << "node " << NodeOf(key) << " keyed into a " << num_nodes_
        << "-node cache";
  }

  static NodeId NodeOf(const Key& key) {
    if constexpr (std::is_integral_v<Key>) {
      return key;
    } else {
      return key.node;
    }
  }

  LruByteCache<Key, Payload, Hash> lru_;
  NodeId num_nodes_ = 0;
  std::vector<char> is_landmark_;
  std::vector<Key> dirty_;  // touched since the last Sweep
};

/// ErEstimator's session hooks, implemented once over a NodeStateCache.
/// `session_` is null until EnableSessionCache runs; estimators without
/// a session answer through their uncached path.
template <typename GraphT, typename Key, typename Payload,
          typename Hash = std::hash<Key>>
class SessionCachedEstimator : public ErEstimator {
 public:
  using SessionCache = NodeStateCache<Key, Payload, Hash>;

  /// Starts a fresh, empty session with `landmarks` as its landmark set;
  /// the old session goes with its entries and counters. A landmark's
  /// entry is pinned when a query first builds it.
  void EnableSessionCache(std::size_t budget_bytes = 0,
                          std::span<const NodeId> landmarks = {}) override {
    session_ = std::make_unique<SessionCache>(budget_bytes, landmarks,
                                              graph_->NumNodes());
  }
  CacheStats SessionCacheStats() const override {
    return session_ != nullptr ? session_->stats() : CacheStats{};
  }

 protected:
  explicit SessionCachedEstimator(const GraphT& graph) : graph_(&graph) {}

  const GraphT* graph_;
  std::unique_ptr<SessionCache> session_;
};

}  // namespace geer

#endif  // GEER_CORE_NODE_STATE_CACHE_H_
