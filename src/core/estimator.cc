#include "core/estimator.h"

#include <unordered_map>

#include "util/check.h"
#include "util/timer.h"

namespace geer {

bool BatchContext::Cancelled() const {
  // The external token is a hard stop: it fires regardless of the ≥ 1
  // answered-query rule (its owner — the serving layer — applies its own
  // progress policy before setting it).
  if (external_cancel_ != nullptr &&
      external_cancel_->load(std::memory_order_relaxed)) {
    return true;
  }
  if (cancel_ == nullptr) return false;
  if (cancel_->load(std::memory_order_relaxed)) return true;
  // The deadline only fires once at least one query has completed
  // batch-wide, preserving the harness's "answer ≥ 1 query" rule.
  if (deadline_ != nullptr && deadline_->Expired() &&
      (answered_ == nullptr ||
       answered_->load(std::memory_order_relaxed) > 0)) {
    cancel_->store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

BatchPlan BatchPlan::Trivial(std::size_t num_queries) {
  BatchPlan plan;
  plan.order.resize(num_queries);
  plan.group_offsets.resize(num_queries + 1);
  for (std::size_t i = 0; i < num_queries; ++i) {
    plan.order[i] = static_cast<std::uint32_t>(i);
    plan.group_offsets[i] = static_cast<std::uint32_t>(i);
  }
  plan.group_offsets[num_queries] = static_cast<std::uint32_t>(num_queries);
  return plan;
}

BatchPlan BatchPlan::GroupByEndpoint(std::span<const QueryPair> queries) {
  // Connected components over the endpoint-sharing relation, via a small
  // union-find on provisional group ids. Unions keep the SMALLER id as
  // root, so a component's id is the id minted at its first query —
  // groups then order by first appearance, and the result is
  // deterministic in the input order.
  std::unordered_map<NodeId, std::uint32_t> group_of_node;
  std::vector<std::uint32_t> parent;
  auto find = [&parent](std::uint32_t g) {
    while (parent[g] != g) {
      parent[g] = parent[parent[g]];
      g = parent[g];
    }
    return g;
  };
  auto unite = [&parent, &find](std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return a;
    if (b < a) std::swap(a, b);
    parent[b] = a;
    return a;
  };
  for (const QueryPair& q : queries) {
    auto s_it = group_of_node.find(q.s);
    auto t_it = group_of_node.find(q.t);
    std::uint32_t g;
    if (s_it == group_of_node.end() && t_it == group_of_node.end()) {
      g = static_cast<std::uint32_t>(parent.size());
      parent.push_back(g);
    } else if (s_it == group_of_node.end()) {
      g = find(t_it->second);
    } else if (t_it == group_of_node.end()) {
      g = find(s_it->second);
    } else {
      g = unite(s_it->second, t_it->second);
    }
    group_of_node[q.s] = g;
    group_of_node[q.t] = g;
  }
  // Second pass: roots are final; bucket queries by root, groups ordered
  // by first appearance of the root.
  std::unordered_map<std::uint32_t, std::uint32_t> bucket_of_root;
  std::vector<std::vector<std::uint32_t>> buckets;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::uint32_t root = find(group_of_node.at(queries[i].s));
    auto [it, inserted] = bucket_of_root.try_emplace(
        root, static_cast<std::uint32_t>(buckets.size()));
    if (inserted) buckets.emplace_back();
    buckets[it->second].push_back(static_cast<std::uint32_t>(i));
  }
  BatchPlan plan;
  plan.order.reserve(queries.size());
  plan.group_offsets.reserve(buckets.size() + 1);
  plan.group_offsets.push_back(0);
  for (const auto& bucket : buckets) {
    plan.order.insert(plan.order.end(), bucket.begin(), bucket.end());
    plan.group_offsets.push_back(
        static_cast<std::uint32_t>(plan.order.size()));
  }
  return plan;
}

std::size_t EstimateByEndpointRuns(
    std::span<const QueryPair> queries, std::span<QueryStats> stats,
    const BatchContext& context,
    const std::function<std::size_t(NodeId, std::span<const QueryPair>,
                                    std::span<QueryStats>)>& run_fn) {
  GEER_CHECK(stats.size() >= queries.size());
  std::size_t i = 0;
  while (i < queries.size()) {
    if (context.Cancelled()) return i;
    // Grow the run while a common endpoint survives the intersection.
    NodeId common[2] = {queries[i].s, queries[i].t};
    std::size_t num_common = queries[i].s == queries[i].t ? 1 : 2;
    std::size_t j = i + 1;
    for (; j < queries.size(); ++j) {
      NodeId kept[2];
      std::size_t num_kept = 0;
      for (std::size_t c = 0; c < num_common; ++c) {
        if (common[c] == queries[j].s || common[c] == queries[j].t) {
          kept[num_kept++] = common[c];
        }
      }
      if (num_kept == 0) break;
      num_common = num_kept;
      common[0] = kept[0];
      if (num_common == 2) common[1] = kept[1];
    }
    NodeId key = common[0];
    if (num_common == 2 && common[1] < key) key = common[1];
    const std::size_t run = j - i;
    const std::size_t done =
        run_fn(key, queries.subspan(i, run), stats.subspan(i, run));
    i += done;
    if (done < run) return i;
  }
  return i;
}

std::size_t ErEstimator::EstimateBatch(std::span<const QueryPair> queries,
                                       std::span<QueryStats> stats,
                                       const BatchContext& context) {
  GEER_CHECK(stats.size() >= queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (context.Cancelled()) return i;
    const QueryPair& q = queries[i];
    stats[i] = SupportsQuery(q.s, q.t) ? EstimateWithStats(q.s, q.t)
                                       : QueryStats{};
    context.ReportAnswered();
  }
  return queries.size();
}

}  // namespace geer
