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
      // Landmark populations are re-pinned when next rebuilt.
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
void TpEstimatorT<WP>::RecordLength(NodeId node, std::uint32_t i,
                                    std::uint64_t eta, Rng& rng,
                                    TpPopulation* record) {
  if (hist_count_.size() != graph_->NumNodes()) {
    hist_count_.assign(graph_->NumNodes(), 0);
  } else {
    for (const NodeId v : hist_touched_) hist_count_[v] = 0;
  }
  hist_touched_.clear();
  for (std::uint64_t k = 0; k < eta; ++k) {
    // Unrolled WalkEndpoint (same Step sequence, so the RNG stream —
    // and every count — is bit-identical) that also records each node
    // stepped FROM into the population's visit filter. The final
    // endpoint is not recorded: its row never influenced a step.
    NodeId cur = node;
    for (std::uint32_t step = 0; step < i; ++step) {
      record->visits.Add(cur);
      cur = walker_.Step(cur, rng);
    }
    if (hist_count_[cur] == 0) hist_touched_.push_back(cur);
    ++hist_count_[cur];
  }
  auto& row = record->hist.emplace_back();
  row.reserve(hist_touched_.size());
  // First-visit order: deterministic in the walk stream, no sort.
  for (const NodeId v : hist_touched_) row.emplace_back(v, hist_count_[v]);
}

template <WeightPolicy WP>
template <typename CountFn>
void TpEstimatorT<WP>::CountEnds(NodeId node, std::uint32_t i,
                                 std::uint64_t eta, Rng& rng,
                                 const TpPopulation* retained,
                                 TpPopulation* record, QueryStats* cost,
                                 CountFn&& count) {
  const TpPopulation* pop = retained;
  if (pop == nullptr) {
    cost->walks += eta;
    cost->walk_steps += eta * i;
    if (record == nullptr) {
      for (std::uint64_t k = 0; k < eta; ++k) {
        count(walker_.WalkEndpoint(node, i, rng), 1u);
      }
      return;
    }
    RecordLength(node, i, eta, rng, record);
    pop = record;
  }
  for (const auto& [endpoint, c] : pop->hist[i - 1]) count(endpoint, c);
}

// `key` may be either endpoint of each query; per-length terms
// accumulate in canonical (min, max) order so the value does not depend
// on which. With a session on, every population is looked up first: a
// hit is read back, a miss is recorded and inserted after the group.
template <WeightPolicy WP>
void TpEstimatorT<WP>::EstimateKeyGroup(NodeId key,
                                        std::span<const QueryPair> queries,
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
  const bool use_session = session_ != nullptr;

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
    // One node population law for both roles: a population serves as the
    // shared key side of one group and the other side of another,
    // bit-identical to the serial simulation either way.
    st.rng_o = Rng(MixSeed(MixSeed(options_.seed, kTpStreamTag), st.other));
    stats[j].ell = ell;
    stats[j].truncated = truncated;
    if (use_session) {
      st.o_pop = session_->Find(st.other);
      if (st.o_pop != nullptr) {
        GEER_DCHECK(st.o_pop->ell == ell && st.o_pop->eta == eta);
      } else {
        st.record_o = true;
        st.o_rec = TpPopulation::Recorder(ell, eta, n);
      }
    }
    // Chain query j under its other endpoint for the key-side count.
    target_next_[j] = target_head_[st.other];
    target_head_[st.other] = static_cast<std::uint32_t>(j) + 1;
    target_touched_.push_back(st.other);
    if (first_live == m) first_live = j;
  }
  if (first_live == m) return;  // every query was s == t

  const TpPopulation* key_pop = nullptr;
  TpPopulation key_rec;
  bool record_key = false;
  if (use_session) {
    key_pop = session_->Find(key);
    if (key_pop != nullptr) {
      GEER_DCHECK(key_pop->ell == ell && key_pop->eta == eta);
    } else {
      record_key = true;
      key_rec = TpPopulation::Recorder(ell, eta, n);
    }
  }

  Rng rng_k(MixSeed(MixSeed(options_.seed, kTpStreamTag), key));
  QueryStats shared;  // key-side cost, charged to the first live query
  std::vector<std::uint64_t> count_ko(m, 0);

  for (std::uint32_t i = 1; i <= ell; ++i) {
    // Key side once for the whole group: count walks ending at the key
    // and, through the chains, at every live query's other endpoint.
    std::uint64_t count_kk = 0;
    std::fill(count_ko.begin(), count_ko.end(), 0);
    CountEnds(key, i, eta, rng_k, key_pop, record_key ? &key_rec : nullptr,
              &shared, [&](NodeId end, std::uint32_t c) {
                if (end == key) count_kk += c;
                for (std::uint32_t idx = target_head_[end]; idx != 0;
                     idx = target_next_[idx - 1]) {
                  count_ko[idx - 1] += c;
                }
              });

    // Other sides per query.
    for (std::size_t j = 0; j < m; ++j) {
      QueryState& st = state[j];
      if (!st.live) continue;
      std::uint64_t count_oo = 0;
      std::uint64_t count_ok = 0;
      CountEnds(st.other, i, eta, st.rng_o, st.o_pop,
                st.record_o ? &st.o_rec : nullptr, &stats[j],
                [&](NodeId end, std::uint32_t c) {
                  if (end == st.other) count_oo += c;
                  if (end == key) count_ok += c;
                });
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
  if (!use_session) return;

  // Retain the populations built this group; landmark populations are
  // pinned on insert.
  if (record_key) session_->Insert(key, std::move(key_rec));
  for (std::size_t j = 0; j < m; ++j) {
    if (state[j].live && state[j].record_o) {
      session_->Insert(state[j].other, std::move(state[j].o_rec));
    }
  }
  session_->Sweep();
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
