// Byte-budgeted LRU admission layer under the estimators' session and
// landmark caches (SMM/GEER iterate streams, TP/TPC walk populations,
// EXACT/CG solver columns), all of which reach it through
// core/node_state_cache.h, so eviction policy, byte accounting and
// hit/miss counters behave identically everywhere.
//
// Semantics the estimators rely on:
//   * Entries live in a std::list, so Value pointers stay stable across
//     Find/GetOrCreate/Insert/SetBytes — a caller may hold two entries
//     (both endpoints of a query) at once.
//   * Nothing evicts implicitly. GetOrCreate/Insert only add or replace;
//     the caller invokes EvictOverBudget() at a point where it holds no
//     entry pointers (between queries / after a group finishes).
//   * Pinned entries (landmarks) are exempt from the byte budget and from
//     EvictOverBudget, but NOT from EvictIf/Clear — epoch invalidation
//     must be able to drop a stale landmark.
//   * Clear()/eviction reset the resident gauges (bytes/entries) but the
//     hit/miss/eviction counters are monotone for the lifetime of the
//     cache, so ServeMetrics snapshots never move backwards across a
//     RebindGraph.

#ifndef GEER_UTIL_LRU_BYTE_CACHE_H_
#define GEER_UTIL_LRU_BYTE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

namespace geer {

// Counters exposed by every cache; aggregated across serve workers into
// ServeMetrics. hits/misses/evictions are monotone; bytes/entries/pinned
// are current-resident gauges.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bytes = 0;
  std::uint64_t entries = 0;
  std::uint64_t pinned = 0;

  CacheStats& operator+=(const CacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    bytes += other.bytes;
    entries += other.entries;
    pinned += other.pinned;
    return *this;
  }
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruByteCache {
 public:
  explicit LruByteCache(std::size_t budget_bytes)
      : budget_bytes_(budget_bytes) {}

  // Looks `key` up, bumping it to most-recently-used and counting a hit;
  // counts a miss and returns nullptr when absent.
  Value* Find(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    entries_.splice(entries_.begin(), entries_, it->second);
    return &it->second->value;
  }

  // Find() that neither counts nor reorders — for introspection/tests.
  const Value* Peek(const Key& key) const {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->value;
  }

  // Returns the resident entry (hit) or move-inserts `make()` at zero
  // recorded bytes (miss; call SetBytes once the payload is sized).
  // Never evicts: the caller may already hold another entry's pointer.
  template <typename Make>
  Value* GetOrCreate(const Key& key, Make&& make) {
    if (Value* hit = Find(key)) return hit;
    entries_.emplace_front(Entry{key, make(), /*bytes=*/0,
                                 /*pinned=*/false});
    index_.emplace(key, entries_.begin());
    return &entries_.front().value;
  }

  // Replace-or-insert with explicit byte accounting. Keeps the entry's
  // pin state on replace unless `pinned` asks for more. Does not evict.
  Value* Insert(const Key& key, Value value, std::size_t bytes,
                bool pinned = false) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      Entry& entry = *it->second;
      AccountBytes(entry, bytes);
      entry.value = std::move(value);
      if (pinned && !entry.pinned) Pin(key);
      entries_.splice(entries_.begin(), entries_, it->second);
      return &entry.value;
    }
    entries_.emplace_front(Entry{key, std::move(value), 0, false});
    index_.emplace(key, entries_.begin());
    AccountBytes(entries_.front(), bytes);
    if (pinned) Pin(key);
    return &entries_.front().value;
  }

  // Re-records an entry's payload size after it grew/shrank in place.
  void SetBytes(const Key& key, std::size_t bytes) {
    auto it = index_.find(key);
    if (it == index_.end()) return;
    AccountBytes(*it->second, bytes);
  }

  // Marks an entry budget-exempt (landmark). No-op when absent.
  void Pin(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end() || it->second->pinned) return;
    it->second->pinned = true;
    ++pinned_count_;
    pinned_bytes_ += it->second->bytes;
  }

  void Unpin(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end() || !it->second->pinned) return;
    it->second->pinned = false;
    --pinned_count_;
    pinned_bytes_ -= it->second->bytes;
  }

  // Drops least-recently-used unpinned entries until the unpinned
  // resident bytes fit the budget. Call only with no entry pointers
  // outstanding.
  void EvictOverBudget() {
    auto it = entries_.end();
    while (total_bytes_ - pinned_bytes_ > budget_bytes_ &&
           it != entries_.begin()) {
      --it;
      if (it->pinned) continue;
      it = Remove(it);
      ++evictions_;
    }
  }

  // Removes every entry (pinned included) matching pred(key, value) —
  // the epoch-invalidation hook. Returns the number removed.
  template <typename Pred>
  std::size_t EvictIf(Pred&& pred) {
    std::size_t removed = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (pred(static_cast<const Key&>(it->key), it->value)) {
        it = Remove(it);
        ++evictions_;
        ++removed;
      } else {
        ++it;
      }
    }
    return removed;
  }

  bool Erase(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    Remove(it->second);
    return true;
  }

  // Drops all entries. Monotone counters (hits/misses/evictions) are
  // intentionally preserved; only the resident gauges reset.
  void Clear() {
    entries_.clear();
    index_.clear();
    total_bytes_ = 0;
    pinned_bytes_ = 0;
    pinned_count_ = 0;
  }

  // Visits entries most- to least-recently-used.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Entry& entry : entries_) fn(entry.key, entry.value);
  }

  void set_budget_bytes(std::size_t budget_bytes) {
    budget_bytes_ = budget_bytes;
  }
  std::size_t budget_bytes() const { return budget_bytes_; }
  std::size_t size() const { return entries_.size(); }
  std::size_t bytes() const { return total_bytes_; }

  CacheStats stats() const {
    CacheStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.bytes = total_bytes_;
    s.entries = entries_.size();
    s.pinned = pinned_count_;
    return s;
  }

 private:
  struct Entry {
    Key key;
    Value value;
    std::size_t bytes = 0;
    bool pinned = false;
  };
  using EntryList = std::list<Entry>;

  void AccountBytes(Entry& entry, std::size_t bytes) {
    total_bytes_ = total_bytes_ - entry.bytes + bytes;
    if (entry.pinned) pinned_bytes_ = pinned_bytes_ - entry.bytes + bytes;
    entry.bytes = bytes;
  }

  typename EntryList::iterator Remove(typename EntryList::iterator it) {
    if (it->pinned) {
      --pinned_count_;
      pinned_bytes_ -= it->bytes;
    }
    total_bytes_ -= it->bytes;
    index_.erase(it->key);
    return entries_.erase(it);
  }

  std::size_t budget_bytes_;
  EntryList entries_;  // front = most recently used
  std::unordered_map<Key, typename EntryList::iterator, Hash> index_;
  std::size_t total_bytes_ = 0;
  std::size_t pinned_bytes_ = 0;
  std::uint64_t pinned_count_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace geer

#endif  // GEER_UTIL_LRU_BYTE_CACHE_H_
