#include "core/tpc.h"

#include <algorithm>
#include <cmath>

#include "core/ell.h"
#include "core/spectral_epoch.h"
#include "linalg/spectral.h"
#include "util/check.h"

namespace geer {
namespace {

// Domain-separation tag for TPC's per-walk streams.
constexpr std::uint64_t kTpcStreamTag = 0x545043u;  // "TPC"

}  // namespace

std::size_t TpcSessionPopulation::ApproxBytes() const {
  std::size_t bytes = sizeof(TpcSessionPopulation);
  for (const auto& row : ends_at) {
    bytes += row.size() * sizeof(NodeId) + sizeof(row);
  }
  bytes += rngs.size() * sizeof(Rng);
  bytes += cur_len.size() * sizeof(std::uint32_t);
  return bytes + visits.bytes();
}

template <WeightPolicy WP>
TpcEstimatorT<WP>::TpcEstimatorT(const GraphT& graph, ErOptions options)
    : Base(graph),
      options_(options),
      walker_(graph),
      count_a_(graph.NumNodes(), 0),
      count_b_(graph.NumNodes(), 0) {
  ValidateOptions(options_);
  lambda_ = options_.lambda.has_value()
                ? *options_.lambda
                : ComputeSpectralBoundsT<WP>(graph).lambda;
}

template <WeightPolicy WP>
bool TpcEstimatorT<WP>::RebindGraph(const GraphT& graph,
                                    const GraphEpoch& epoch) {
  graph_ = &graph;
  walker_ = WalkerFor<WP>(graph);
  bool incremental = false;
  lambda_ = RebindLambda<WP>(graph, epoch, &incremental);
  count_a_.assign(graph.NumNodes(), 0);
  count_b_.assign(graph.NumNodes(), 0);
  touched_.clear();
  // Selective retention: populations are prefix-pure — their recorded
  // snapshots stay valid at any (length, walk-count) prefix even when
  // the new λ changes the schedule, because the schedule only decides
  // how far queries read or extend. Only populations whose walks stepped
  // from a touched row replay differently on the new graph.
  if (session_ != nullptr && session_->Rebind(epoch)) incremental = true;
  if (incremental) {
    incremental_rebinds_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

template <WeightPolicy WP>
double TpcEstimatorT<WP>::BetaHeuristic(std::uint32_t i, NodeId s,
                                        NodeId t) const {
  const double stationary = 1.0 / WP::TotalNodeWeight(*graph_);
  const double start = std::max(1.0 / WP::NodeWeight(*graph_, s),
                                1.0 / WP::NodeWeight(*graph_, t));
  const double decay = std::pow(0.5, std::min<std::uint32_t>(i, 63));
  return std::max(stationary, start * decay);
}

template <WeightPolicy WP>
std::uint64_t TpcEstimatorT<WP>::WalksForLength(std::uint32_t i,
                                                std::uint32_t ell, NodeId s,
                                                NodeId t) const {
  const double l = static_cast<double>(ell);
  const double beta = BetaHeuristic(i, s, t);
  const double raw =
      40000.0 * (l * std::sqrt(l * beta) / options_.epsilon +
                 l * l * l * std::pow(beta, 1.5) /
                     (options_.epsilon * options_.epsilon));
  return static_cast<std::uint64_t>(
      std::ceil(std::max(raw * options_.tpc_scale, 1.0)));
}

template <WeightPolicy WP>
typename TpcEstimatorT<WP>::Population TpcEstimatorT<WP>::MakePopulation(
    NodeId source, std::uint64_t side) const {
  Population pop;
  pop.source = source;
  pop.stream_base = StreamBase(source, side);
  return pop;
}

template <WeightPolicy WP>
void TpcEstimatorT<WP>::AdvancePopulation(Population* pop,
                                          std::uint32_t length,
                                          std::uint64_t n_walks,
                                          QueryStats* stats) {
  if (pop->ends.size() < n_walks) {
    const std::size_t old_size = pop->ends.size();
    pop->ends.resize(n_walks, pop->source);
    pop->lengths.resize(n_walks, 0);
    pop->rngs.reserve(n_walks);
    for (std::size_t k = old_size; k < n_walks; ++k) {
      pop->rngs.emplace_back(MixSeed(pop->stream_base, k));
    }
    stats->walks += n_walks - old_size;
  }
  for (std::uint64_t k = 0; k < n_walks; ++k) {
    const std::uint32_t have = pop->lengths[k];
    if (have >= length) continue;
    const std::uint32_t delta = length - have;
    // Stepping in increments is path-identical to one full walk: the
    // walk's own stream is consumed one step at a time either way.
    pop->ends[k] = walker_.WalkEndpoint(pop->ends[k], delta, pop->rngs[k]);
    pop->lengths[k] = length;
    stats->walk_steps += delta;
  }
}

template <WeightPolicy WP>
void TpcEstimatorT<WP>::AdvanceSessionPopulation(TpcSessionPopulation* pop,
                                                 std::uint32_t length,
                                                 std::uint64_t n_walks,
                                                 QueryStats* stats) {
  if (!pop->visits.Initialized()) {
    pop->visits = VisitFilter(graph_->NumNodes());
    pop->visits.Add(pop->node);
  }
  if (pop->ends_at.size() <= length) pop->ends_at.resize(length + 1);
  if (pop->rngs.size() < n_walks) {
    const std::size_t old_size = pop->rngs.size();
    pop->rngs.reserve(n_walks);
    pop->cur_len.reserve(n_walks);
    pop->ends_at[0].reserve(n_walks);
    for (std::size_t k = old_size; k < n_walks; ++k) {
      pop->rngs.emplace_back(MixSeed(pop->stream_base, k));
      pop->cur_len.push_back(0);
      GEER_DCHECK(pop->ends_at[0].size() == k);
      pop->ends_at[0].push_back(pop->node);
    }
    stats->walks += n_walks - old_size;
  }
  if (n_walks == 0) return;
  // Fast path: the lockstep group pattern leaves walks [0, n_walks) at
  // one common recorded length (cur_len is non-increasing in k, so the
  // endpoints suffice to check). Extend length-by-length over the
  // contiguous snapshot rows — sequential reads/writes instead of a
  // per-walk pointer chase, and each walk still consumes ITS OWN stream
  // one step at a time (bit-identical endpoints).
  if (pop->cur_len[0] == pop->cur_len[n_walks - 1]) {
    std::uint32_t have = pop->cur_len[0];
    if (have >= length) return;
    stats->walk_steps += (length - have) * n_walks;
    for (std::uint32_t len = have + 1; len <= length; ++len) {
      auto& row = pop->ends_at[len];
      GEER_DCHECK(row.empty());
      row.resize(n_walks);
      const NodeId* prev = pop->ends_at[len - 1].data();
      NodeId* out = row.data();
      for (std::uint64_t k = 0; k < n_walks; ++k) {
        pop->visits.Add(prev[k]);  // stepped FROM prev[k]
        out[k] = walker_.Step(prev[k], pop->rngs[k]);
      }
    }
    for (std::uint64_t k = 0; k < n_walks; ++k) pop->cur_len[k] = length;
    return;
  }
  for (std::uint64_t k = 0; k < n_walks; ++k) {
    std::uint32_t have = pop->cur_len[k];
    if (have >= length) continue;
    // Extend one step at a time, snapshotting the endpoint at every
    // length — stream-identical to one WalkEndpoint call, and what lets
    // a LATER batch collide any shorter length without re-simulating.
    NodeId cur = pop->ends_at[have][k];
    stats->walk_steps += length - have;
    while (have < length) {
      pop->visits.Add(cur);  // stepped FROM cur
      cur = walker_.Step(cur, pop->rngs[k]);
      ++have;
      GEER_DCHECK(pop->ends_at[have].size() == k);
      pop->ends_at[have].push_back(cur);
    }
    pop->cur_len[k] = length;
  }
}

template <WeightPolicy WP>
void TpcEstimatorT<WP>::Advance(const PopHandle& pop, std::uint32_t length,
                                std::uint64_t n_walks, QueryStats* stats) {
  if (pop.session != nullptr) {
    AdvanceSessionPopulation(pop.session, length, n_walks, stats);
  } else {
    AdvancePopulation(pop.local, length, n_walks, stats);
  }
}

template <WeightPolicy WP>
std::span<const NodeId> TpcEstimatorT<WP>::Ends(const PopHandle& pop,
                                                std::uint32_t length,
                                                std::uint64_t n) const {
  if (pop.session != nullptr) {
    GEER_DCHECK(length < pop.session->ends_at.size());
    GEER_DCHECK(pop.session->ends_at[length].size() >= n);
    return {pop.session->ends_at[length].data(), n};
  }
  GEER_DCHECK(pop.local->ends.size() >= n);
  return {pop.local->ends.data(), n};
}

template <WeightPolicy WP>
double TpcEstimatorT<WP>::Collide(std::span<const NodeId> a_ends,
                                  std::span<const NodeId> b_ends) {
  GEER_DCHECK(a_ends.size() == b_ends.size());
  const std::uint64_t n = a_ends.size();
  touched_.clear();
  for (const NodeId v : a_ends) {
    if (count_a_[v] == 0 && count_b_[v] == 0) touched_.push_back(v);
    ++count_a_[v];
  }
  for (const NodeId v : b_ends) {
    if (count_a_[v] == 0 && count_b_[v] == 0) touched_.push_back(v);
    ++count_b_[v];
  }
  double acc = 0.0;
  for (const NodeId v : touched_) {
    acc += static_cast<double>(count_a_[v]) *
           static_cast<double>(count_b_[v]) / WP::NodeWeight(*graph_, v);
    count_a_[v] = 0;
    count_b_[v] = 0;
  }
  return acc / (static_cast<double>(n) * static_cast<double>(n));
}

template <WeightPolicy WP>
std::uint64_t TpcEstimatorT<WP>::StreamBase(NodeId node,
                                            std::uint64_t side) const {
  return MixSeed(MixSeed(MixSeed(options_.seed, kTpcStreamTag), node),
                 side);
}

template <WeightPolicy WP>
TpcSessionPopulation* TpcEstimatorT<WP>::SessionPopulationFor(
    NodeId node, std::uint32_t side) {
  return session_->GetOrCreate({node, side}, [&] {
    TpcSessionPopulation fresh;
    fresh.node = node;
    fresh.stream_base = StreamBase(node, side);
    return fresh;
  });
}

template <WeightPolicy WP>
void TpcEstimatorT<WP>::EstimateKeyGroup(NodeId key,
                                         std::span<const QueryPair> queries,
                                         std::span<QueryStats> stats) {
  const NodeId n = graph_->NumNodes();
  GEER_CHECK(key < n);
  const std::uint32_t ell =
      PengEll(options_.epsilon, lambda_, options_.max_ell);
  const bool truncated =
      EllWasTruncated(options_.epsilon, lambda_, 1, 1, options_.max_ell,
                      /*use_peng=*/true);
  const double inv_wk = 1.0 / WP::NodeWeight(*graph_, key);
  const std::size_t m = queries.size();
  const bool use_session = session_ != nullptr;

  // Shared key-side populations (A at ⌈i/2⌉, B at ⌊i/2⌋) and the
  // per-query other-side populations; A and B never mix, so every
  // per-length collision pairs two independent populations. With a
  // session enabled the populations live in the session cache (endpoint
  // snapshots per length, reusable next batch); otherwise they are
  // group-local with endpoints in place.
  Population a_k_local;
  Population b_k_local;
  PopHandle a_k;
  PopHandle b_k;
  if (use_session) {
    a_k.session = SessionPopulationFor(key, 0);
    b_k.session = SessionPopulationFor(key, 1);
  } else {
    a_k_local = MakePopulation(key, 0);
    b_k_local = MakePopulation(key, 1);
    a_k.local = &a_k_local;
    b_k.local = &b_k_local;
  }
  struct QueryState {
    bool live = false;
    bool key_is_min = false;
    NodeId other = 0;
    double estimate = 0.0;
    Population a_o_local, b_o_local;
    PopHandle a_o, b_o;
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
    // i = 0 seed 1/w(u) + 1/w(v): FP addition is commutative bitwise.
    st.estimate = inv_wk + 1.0 / WP::NodeWeight(*graph_, st.other);
    if (use_session) {
      st.a_o.session = SessionPopulationFor(st.other, 0);
      st.b_o.session = SessionPopulationFor(st.other, 1);
    } else {
      st.a_o_local = MakePopulation(st.other, 0);
      st.b_o_local = MakePopulation(st.other, 1);
      st.a_o.local = &st.a_o_local;
      st.b_o.local = &st.b_o_local;
    }
    stats[j].ell = ell;
    stats[j].truncated = truncated;
    if (first_live == m) first_live = j;
  }
  if (first_live == m) return;  // every query was s == t

  QueryStats shared;  // key-side cost, charged to the first live query
  std::vector<std::uint64_t> n_walks_of(m, 0);
  for (std::uint32_t i = 1; i <= ell; ++i) {
    const std::uint32_t len_a = (i + 1) / 2;  // ⌈i/2⌉
    const std::uint32_t len_b = i / 2;        // ⌊i/2⌋
    // The shared populations must cover the largest per-query demand;
    // each query collides only the prefix it would have grown serially.
    // β is symmetric in the endpoints, so n matches the serial query.
    std::uint64_t n_max = 0;
    for (std::size_t j = 0; j < m; ++j) {
      if (!state[j].live) continue;
      n_walks_of[j] = WalksForLength(i, ell, key, state[j].other);
      n_max = std::max(n_max, n_walks_of[j]);
    }
    Advance(a_k, len_a, n_max, &shared);
    Advance(b_k, len_b, n_max, &shared);
    // p_kk depends only on the prefix length, and the per-query β
    // heuristic often coincides across a group — memoize the shared
    // collision per distinct n instead of re-counting it per query.
    std::uint64_t memo_n = 0;
    double memo_p_kk = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      QueryState& st = state[j];
      if (!st.live) continue;
      const std::uint64_t n_walks = n_walks_of[j];
      Advance(st.a_o, len_a, n_walks, &stats[j]);
      Advance(st.b_o, len_b, n_walks, &stats[j]);
      // p_i(u,u)/w(u), p_i(v,v)/w(v), p_i(u,v)/w(v) (= p_i(v,u)/w(u)).
      if (memo_n != n_walks) {
        memo_n = n_walks;
        memo_p_kk = Collide(Ends(a_k, len_a, n_walks),
                            Ends(b_k, len_b, n_walks));
      }
      const double p_kk = memo_p_kk;
      const double p_oo = Collide(Ends(st.a_o, len_a, n_walks),
                                  Ends(st.b_o, len_b, n_walks));
      // Canonical cross collision: A of the smaller endpoint against B
      // of the larger, making the value independent of which endpoint
      // keys the group (and hence of query orientation).
      const double p_uv =
          st.key_is_min
              ? Collide(Ends(a_k, len_a, n_walks),
                        Ends(st.b_o, len_b, n_walks))
              : Collide(Ends(st.a_o, len_a, n_walks),
                        Ends(b_k, len_b, n_walks));
      st.estimate += p_kk + p_oo - 2.0 * p_uv;
    }
  }

  for (std::size_t j = 0; j < m; ++j) {
    if (state[j].live) stats[j].value = state[j].estimate;
  }
  stats[first_live].walks += shared.walks;
  stats[first_live].walk_steps += shared.walk_steps;
  if (use_session) session_->Sweep();  // byte re-accounting + LRU eviction
}

template <WeightPolicy WP>
void TpcEstimatorT<WP>::WarmLandmark(NodeId lm) {
  const std::uint32_t ell =
      PengEll(options_.epsilon, lambda_, options_.max_ell);
  TpcSessionPopulation* a = SessionPopulationFor(lm, 0);
  TpcSessionPopulation* b = SessionPopulationFor(lm, 1);
  // Advance to the full per-length schedule at the landmark's own β (a
  // lower bound on any query's β with this endpoint may not hold, so
  // queries extend the populations in place when they need more walks —
  // content-addressed streams keep that bit-identical).
  QueryStats scratch;
  for (std::uint32_t i = 1; i <= ell; ++i) {
    const std::uint64_t n_walks = WalksForLength(i, ell, lm, lm);
    AdvanceSessionPopulation(a, (i + 1) / 2, n_walks, &scratch);
    AdvanceSessionPopulation(b, i / 2, n_walks, &scratch);
  }
}

template <WeightPolicy WP>
QueryStats TpcEstimatorT<WP>::EstimateWithStats(NodeId s, NodeId t) {
  const QueryPair query{s, t};
  QueryStats stats;
  EstimateKeyGroup(s, std::span<const QueryPair>(&query, 1),
                   std::span<QueryStats>(&stats, 1));
  return stats;
}

template <WeightPolicy WP>
std::size_t TpcEstimatorT<WP>::EstimateBatch(
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

template class TpcEstimatorT<UnitWeight>;
template class TpcEstimatorT<EdgeWeight>;

}  // namespace geer
