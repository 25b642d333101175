#include "core/tp.h"

#include <algorithm>
#include <cmath>

#include "core/ell.h"
#include "core/spectral_epoch.h"
#include "linalg/spectral.h"
#include "util/check.h"

namespace geer {
namespace {

// Domain-separation tag for TP's per-source walk streams (keeps them
// decorrelated from TPC's per-walk streams on the same seed and source).
constexpr std::uint64_t kTpStreamTag = 0x5450u;  // "TP"

}  // namespace

TpPopulation TpPopulation::Recorder(std::uint32_t ell, std::uint64_t eta,
                                    NodeId num_nodes) {
  TpPopulation rec;
  rec.ell = ell;
  rec.eta = eta;
  rec.hist.reserve(ell);
  rec.visits = VisitFilter(num_nodes);
  return rec;
}

std::uint32_t TpPopulation::Count(std::uint32_t i, NodeId v) const {
  GEER_DCHECK(i >= 1 && i <= ell);
  for (const auto& [endpoint, count] : hist[i - 1]) {
    if (endpoint == v) return count;
  }
  return 0;
}

std::size_t TpPopulation::ApproxBytes() const {
  std::size_t bytes = sizeof(TpPopulation) + visits.bytes();
  for (const auto& row : hist) {
    bytes += row.size() * sizeof(std::pair<NodeId, std::uint32_t>) +
             sizeof(row);
  }
  return bytes;
}

template <WeightPolicy WP>
TpEstimatorT<WP>::TpEstimatorT(const GraphT& graph, ErOptions options)
    : Base(graph), options_(options), walker_(graph) {
  ValidateOptions(options_);
  lambda_ = options_.lambda.has_value()
                ? *options_.lambda
                : ComputeSpectralBoundsT<WP>(graph).lambda;
}

template <WeightPolicy WP>
bool TpEstimatorT<WP>::RebindGraph(const GraphT& graph,
                                   const GraphEpoch& epoch) {
  // The outgoing walk schedule, before λ is re-derived: retained
  // populations are only compatible with the new epoch if (ℓ, η) is
  // unchanged — every count lookup asserts schedule equality.
  const std::uint32_t old_ell =
      PengEll(options_.epsilon, lambda_, options_.max_ell);
  const std::uint64_t old_eta = WalksPerLength(old_ell);
  graph_ = &graph;
  walker_ = WalkerFor<WP>(graph);
  bool incremental = false;
  lambda_ = RebindLambda<WP>(graph, epoch, &incremental);
  const std::uint32_t new_ell =
      PengEll(options_.epsilon, lambda_, options_.max_ell);
  if (session_ != nullptr) {
    if (new_ell != old_ell || WalksPerLength(new_ell) != old_eta) {
      // Schedule change: every population has the wrong (ℓ, η).
      // Landmark populations are re-warmed (and re-pinned) lazily.
      session_->Clear();
    } else if (session_->Rebind(epoch)) {
      // Selective retention: a population whose recorded visit set is
      // disjoint from the touched rows replays bit-identically on the
      // new graph.
      incremental = true;
    }
  }
  if (incremental) {
    incremental_rebinds_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

template <WeightPolicy WP>
std::uint64_t TpEstimatorT<WP>::WalksPerLength(std::uint32_t ell) const {
  if (ell == 0) return 0;
  const double l = static_cast<double>(ell);
  const double raw = 40.0 * l * l * std::log(8.0 * l / options_.delta) /
                     (options_.epsilon * options_.epsilon);
  return static_cast<std::uint64_t>(
      std::ceil(std::max(raw * options_.tp_scale, 1.0)));
}

template <WeightPolicy WP>
void TpEstimatorT<WP>::EnsureHistScratch() {
  if (hist_count_.size() != graph_->NumNodes()) {
    hist_count_.assign(graph_->NumNodes(), 0);
    hist_touched_.clear();
  }
}

template <WeightPolicy WP>
void TpEstimatorT<WP>::ResetHistScratch() {
  for (const NodeId v : hist_touched_) hist_count_[v] = 0;
  hist_touched_.clear();
}

template <WeightPolicy WP>
void TpEstimatorT<WP>::SimulateLength(NodeId node, std::uint32_t i,
                                      std::uint64_t eta, Rng& rng,
                                      TpPopulation* record) {
  ResetHistScratch();
  for (std::uint64_t k = 0; k < eta; ++k) {
    NodeId end;
    if (record != nullptr) {
      // Unrolled WalkEndpoint (same Step sequence, so the RNG stream —
      // and every count — is bit-identical) that also records each node
      // stepped FROM into the population's visit filter. The final
      // endpoint is not recorded: its row never influenced a step.
      NodeId cur = node;
      for (std::uint32_t step = 0; step < i; ++step) {
        record->visits.Add(cur);
        cur = walker_.Step(cur, rng);
      }
      end = cur;
    } else {
      end = walker_.WalkEndpoint(node, i, rng);
    }
    if (hist_count_[end] == 0) hist_touched_.push_back(end);
    ++hist_count_[end];
  }
  if (record != nullptr) {
    auto& row = record->hist.emplace_back();
    row.reserve(hist_touched_.size());
    // First-visit order: deterministic in the walk stream, no sort.
    for (const NodeId v : hist_touched_) row.emplace_back(v, hist_count_[v]);
  }
}

template <WeightPolicy WP>
void TpEstimatorT<WP>::SplatRow(
    const std::vector<std::pair<NodeId, std::uint32_t>>& row) {
  ResetHistScratch();
  for (const auto& [endpoint, count] : row) {
    hist_count_[endpoint] = count;
    hist_touched_.push_back(endpoint);
  }
}

template <WeightPolicy WP>
void TpEstimatorT<WP>::EstimateKeyGroup(NodeId key,
                                        std::span<const QueryPair> queries,
                                        std::span<QueryStats> stats) {
  if (session_ != nullptr) {
    EstimateKeyGroupSession(key, queries, stats);
  } else {
    EstimateKeyGroupDirect(key, queries, stats);
  }
}

// The original (session-less) hot loop: endpoint hits are counted with
// per-node chains during the walk pass — no histogram maintenance on the
// per-walk path. `key` may be either endpoint of each query; per-length
// terms accumulate in canonical (min, max) order so the value does not
// depend on which.
template <WeightPolicy WP>
void TpEstimatorT<WP>::EstimateKeyGroupDirect(
    NodeId key, std::span<const QueryPair> queries,
    std::span<QueryStats> stats) {
  const NodeId n = graph_->NumNodes();
  GEER_CHECK(key < n);
  const std::uint32_t ell =
      PengEll(options_.epsilon, lambda_, options_.max_ell);
  const bool truncated =
      EllWasTruncated(options_.epsilon, lambda_, 1, 1, options_.max_ell,
                      /*use_peng=*/true);
  const std::uint64_t eta = WalksPerLength(ell);
  const double inv_eta = 1.0 / static_cast<double>(eta);
  const double inv_wk = 1.0 / WP::NodeWeight(*graph_, key);
  const std::size_t m = queries.size();

  // Per-query live state; the i = 0 term of Eq. (4) seeds the estimate.
  struct QueryState {
    bool live = false;
    bool key_is_min = false;
    NodeId other = 0;
    double inv_wo = 0.0;
    double estimate = 0.0;
    Rng rng_o{0};
  };
  std::vector<QueryState> state(m);
  if (target_head_.size() != n) target_head_.assign(n, 0);
  target_next_.assign(m, 0);
  target_touched_.clear();
  std::size_t first_live = m;
  for (std::size_t j = 0; j < m; ++j) {
    const QueryPair& q = queries[j];
    GEER_CHECK(q.s < n);
    GEER_CHECK(q.t < n);
    GEER_CHECK(q.s == key || q.t == key);
    stats[j] = QueryStats{};
    if (q.s == q.t) continue;  // r(v, v) = 0, zero stats like serial
    QueryState& st = state[j];
    st.live = true;
    st.other = q.s == key ? q.t : q.s;
    st.key_is_min = key < st.other;
    st.inv_wo = 1.0 / WP::NodeWeight(*graph_, st.other);
    // i = 0 seed 1/w(u) + 1/w(v): FP addition is commutative bitwise, so
    // no canonical branch is needed here.
    st.estimate = inv_wk + st.inv_wo;
    // The other side keeps the same per-node stream law as the shared
    // side, so any query elsewhere in the batch touching this node reuses
    // (or recomputes) the identical walks.
    st.rng_o = Rng(MixSeed(MixSeed(options_.seed, kTpStreamTag), st.other));
    stats[j].ell = ell;
    stats[j].truncated = truncated;
    // Chain query j under its other endpoint for the shared counting pass.
    target_next_[j] = target_head_[st.other];
    target_head_[st.other] = static_cast<std::uint32_t>(j) + 1;
    target_touched_.push_back(st.other);
    if (first_live == m) first_live = j;
  }
  if (first_live == m) return;  // every query was s == t

  Rng rng_k(MixSeed(MixSeed(options_.seed, kTpStreamTag), key));
  QueryStats shared;  // key-side cost, charged to the first live query
  std::vector<std::uint64_t> count_ko(m, 0);

  for (std::uint32_t i = 1; i <= ell; ++i) {
    // Key side once for the whole group: count walks ending at the key
    // and, through the chains, at every live query's other endpoint.
    std::uint64_t count_kk = 0;
    std::fill(count_ko.begin(), count_ko.end(), 0);
    for (std::uint64_t k = 0; k < eta; ++k) {
      const NodeId end = walker_.WalkEndpoint(key, i, rng_k);
      if (end == key) ++count_kk;
      for (std::uint32_t idx = target_head_[end]; idx != 0;
           idx = target_next_[idx - 1]) {
        ++count_ko[idx - 1];
      }
    }
    shared.walks += eta;
    shared.walk_steps += eta * i;

    // Other sides per query.
    for (std::size_t j = 0; j < m; ++j) {
      QueryState& st = state[j];
      if (!st.live) continue;
      std::uint64_t count_oo = 0;
      std::uint64_t count_ok = 0;
      for (std::uint64_t k = 0; k < eta; ++k) {
        const NodeId end = walker_.WalkEndpoint(st.other, i, st.rng_o);
        if (end == st.other) ++count_oo;
        if (end == key) ++count_ok;
      }
      stats[j].walks += eta;
      stats[j].walk_steps += eta * i;
      // Eq. (4) term for length i with the empirical probabilities, in
      // canonical (u, v) = (min, max) accumulation order — the branch is
      // what makes Estimate(s, t) ≡ Estimate(t, s) bitwise.
      if (st.key_is_min) {
        st.estimate += (static_cast<double>(count_kk) * inv_wk +
                        static_cast<double>(count_oo) * st.inv_wo -
                        static_cast<double>(count_ko[j]) * st.inv_wo -
                        static_cast<double>(count_ok) * inv_wk) *
                       inv_eta;
      } else {
        st.estimate += (static_cast<double>(count_oo) * st.inv_wo +
                        static_cast<double>(count_kk) * inv_wk -
                        static_cast<double>(count_ok) * inv_wk -
                        static_cast<double>(count_ko[j]) * st.inv_wo) *
                       inv_eta;
      }
    }
  }

  for (std::size_t j = 0; j < m; ++j) {
    if (state[j].live) stats[j].value = state[j].estimate;
  }
  stats[first_live].walks += shared.walks;
  stats[first_live].walk_steps += shared.walk_steps;
  for (const NodeId o : target_touched_) target_head_[o] = 0;
}

// The session path: counts come from the dense histogram scratch, fed
// either by a fresh simulation (recorded into the session) or by
// splatting a retained population's row. Bit-identical to the direct
// path — the counts are the same integers either way.
template <WeightPolicy WP>
void TpEstimatorT<WP>::EstimateKeyGroupSession(
    NodeId key, std::span<const QueryPair> queries,
    std::span<QueryStats> stats) {
  const NodeId n = graph_->NumNodes();
  GEER_CHECK(key < n);
  const std::uint32_t ell =
      PengEll(options_.epsilon, lambda_, options_.max_ell);
  const bool truncated =
      EllWasTruncated(options_.epsilon, lambda_, 1, 1, options_.max_ell,
                      /*use_peng=*/true);
  const std::uint64_t eta = WalksPerLength(ell);
  const double inv_eta = 1.0 / static_cast<double>(eta);
  const double inv_wk = 1.0 / WP::NodeWeight(*graph_, key);
  const std::size_t m = queries.size();
  EnsureHistScratch();

  // Per-query live state; the i = 0 term of Eq. (4) seeds the estimate.
  struct QueryState {
    bool live = false;
    bool key_is_min = false;
    NodeId other = 0;
    double inv_wo = 0.0;
    double estimate = 0.0;
    Rng rng_o{0};
    const TpPopulation* o_pop = nullptr;  // session hit, other side
    TpPopulation o_rec;                   // session recorder (miss)
    bool record_o = false;
  };
  std::vector<QueryState> state(m);
  std::size_t first_live = m;
  for (std::size_t j = 0; j < m; ++j) {
    const QueryPair& q = queries[j];
    GEER_CHECK(q.s < n);
    GEER_CHECK(q.t < n);
    GEER_CHECK(q.s == key || q.t == key);
    stats[j] = QueryStats{};
    if (q.s == q.t) continue;  // r(v, v) = 0, zero stats like serial
    QueryState& st = state[j];
    st.live = true;
    st.other = q.s == key ? q.t : q.s;
    st.key_is_min = key < st.other;
    st.inv_wo = 1.0 / WP::NodeWeight(*graph_, st.other);
    // i = 0 seed 1/w(u) + 1/w(v): FP addition is commutative bitwise, so
    // no canonical branch is needed here.
    st.estimate = inv_wk + st.inv_wo;
    // One node population law for both roles: a cached population serves
    // as the shared key side of one group and the other side of another,
    // bit-identical to the serial simulation either way.
    st.rng_o = Rng(MixSeed(MixSeed(options_.seed, kTpStreamTag), st.other));
    stats[j].ell = ell;
    stats[j].truncated = truncated;
    st.o_pop = session_->Find(st.other);
    if (st.o_pop != nullptr) {
      GEER_DCHECK(st.o_pop->ell == ell && st.o_pop->eta == eta);
    } else {
      st.record_o = true;
      st.o_rec = TpPopulation::Recorder(ell, eta, n);
    }
    if (first_live == m) first_live = j;
  }
  if (first_live == m) return;  // every query was s == t

  const TpPopulation* key_pop = session_->Find(key);
  if (key_pop != nullptr) {
    GEER_DCHECK(key_pop->ell == ell && key_pop->eta == eta);
  }
  TpPopulation key_rec;
  const bool record_key = key_pop == nullptr;
  if (record_key) key_rec = TpPopulation::Recorder(ell, eta, n);

  Rng rng_k(MixSeed(MixSeed(options_.seed, kTpStreamTag), key));
  QueryStats shared;  // key-side cost, charged to the first live query
  std::vector<std::uint64_t> count_ko(m, 0);

  for (std::uint32_t i = 1; i <= ell; ++i) {
    // Key side once for the whole group: the endpoint histogram of the η
    // length-i walks (simulated + recorded, or splatted from the
    // retained population) answers p̂_i(·, key) for the key itself and
    // every live other endpoint. The dense scratch is reused by the
    // other sides below, so every key-side count is extracted before
    // they run.
    if (key_pop == nullptr) {
      SimulateLength(key, i, eta, rng_k, record_key ? &key_rec : nullptr);
      shared.walks += eta;
      shared.walk_steps += eta * i;
    } else {
      SplatRow(key_pop->hist[i - 1]);
    }
    const std::uint64_t count_kk = hist_count_[key];
    for (std::size_t j = 0; j < m; ++j) {
      if (state[j].live) count_ko[j] = hist_count_[state[j].other];
    }

    // Other sides per query: a retained population answers its two
    // lookups by row scan; a miss simulates (and records).
    for (std::size_t j = 0; j < m; ++j) {
      QueryState& st = state[j];
      if (!st.live) continue;
      std::uint64_t count_oo = 0;
      std::uint64_t count_ok = 0;
      if (st.o_pop != nullptr) {
        count_oo = st.o_pop->Count(i, st.other);
        count_ok = st.o_pop->Count(i, key);
      } else {
        SimulateLength(st.other, i, eta, st.rng_o,
                       st.record_o ? &st.o_rec : nullptr);
        stats[j].walks += eta;
        stats[j].walk_steps += eta * i;
        count_oo = hist_count_[st.other];
        count_ok = hist_count_[key];
      }
      // Eq. (4) term for length i with the empirical probabilities, in
      // canonical (u, v) = (min, max) accumulation order — the branch is
      // what makes Estimate(s, t) ≡ Estimate(t, s) bitwise.
      if (st.key_is_min) {
        st.estimate += (static_cast<double>(count_kk) * inv_wk +
                        static_cast<double>(count_oo) * st.inv_wo -
                        static_cast<double>(count_ko[j]) * st.inv_wo -
                        static_cast<double>(count_ok) * inv_wk) *
                       inv_eta;
      } else {
        st.estimate += (static_cast<double>(count_oo) * st.inv_wo +
                        static_cast<double>(count_kk) * inv_wk -
                        static_cast<double>(count_ok) * inv_wk -
                        static_cast<double>(count_ko[j]) * st.inv_wo) *
                       inv_eta;
      }
    }
  }

  for (std::size_t j = 0; j < m; ++j) {
    if (state[j].live) stats[j].value = state[j].estimate;
  }
  stats[first_live].walks += shared.walks;
  stats[first_live].walk_steps += shared.walk_steps;

  // Retain the populations built this group; landmark populations are
  // pinned on insert (the lazy re-warm after an epoch flush).
  if (record_key) session_->Insert(key, std::move(key_rec));
  for (std::size_t j = 0; j < m; ++j) {
    if (state[j].live && state[j].record_o) {
      session_->Insert(state[j].other, std::move(state[j].o_rec));
    }
  }
  session_->Sweep();
}

template <WeightPolicy WP>
void TpEstimatorT<WP>::WarmLandmark(NodeId lm) {
  const std::uint32_t ell =
      PengEll(options_.epsilon, lambda_, options_.max_ell);
  const std::uint64_t eta = WalksPerLength(ell);
  EnsureHistScratch();
  session_->GetOrCreate(lm, [&] {
    TpPopulation rec = TpPopulation::Recorder(ell, eta, graph_->NumNodes());
    Rng rng(MixSeed(MixSeed(options_.seed, kTpStreamTag), lm));
    for (std::uint32_t i = 1; i <= ell; ++i) {
      SimulateLength(lm, i, eta, rng, &rec);
    }
    return rec;
  });
}

template <WeightPolicy WP>
QueryStats TpEstimatorT<WP>::EstimateWithStats(NodeId s, NodeId t) {
  const QueryPair query{s, t};
  QueryStats stats;
  EstimateKeyGroup(s, std::span<const QueryPair>(&query, 1),
                   std::span<QueryStats>(&stats, 1));
  return stats;
}

template <WeightPolicy WP>
std::size_t TpEstimatorT<WP>::EstimateBatch(
    std::span<const QueryPair> queries, std::span<QueryStats> stats,
    const BatchContext& context) {
  // Groups are answered in lockstep, so a run is all-or-nothing — the
  // deadline's cut granularity is one shared-endpoint group.
  return EstimateByEndpointRuns(
      queries, stats, context,
      [this, &context](NodeId key, std::span<const QueryPair> run_queries,
                       std::span<QueryStats> run_stats) {
        EstimateKeyGroup(key, run_queries, run_stats);
        context.ReportAnswered(run_queries.size());
        return run_queries.size();
      });
}

template class TpEstimatorT<UnitWeight>;
template class TpEstimatorT<EdgeWeight>;

}  // namespace geer
