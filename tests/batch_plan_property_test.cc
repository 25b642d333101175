// Property suite for the batch-plan surface (core/estimator.h): on
// RANDOMIZED query batches — both weight modes, duplicate endpoints,
// s == t queries — every plan (Trivial / GroupByEndpoint) must cover each query exactly once, the
// group-by-either-endpoint plan must never split a shareable pair
// (queries connected through common endpoints land in one group, in
// original order, groups ordered by first appearance), and the sharing
// estimators must stay bit-identical to the serial loop under random
// shuffles at 1, 2 and 8 threads. Randomness comes from the library Rng,
// so every "random" batch is reproducible from its printed seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "core/batch_engine.h"
#include "core/registry.h"
#include "graph/generators.h"
#include "graph/weighted_generators.h"
#include "linalg/spectral.h"
#include "rw/rng.h"
#include "test_util.h"

namespace geer {
namespace {

ErOptions TestOptions() {
  ErOptions opt;
  opt.epsilon = 0.5;
  opt.delta = 0.1;
  opt.seed = 20260809;
  opt.tp_scale = 0.01;   // scaled constants keep the suite fast; this
  opt.tpc_scale = 0.01;  // suite checks plan structure, not accuracy
  return opt;
}

// A randomized batch over n nodes: uniform pairs with deliberate
// repetition pressure (small node pool for 1/3 of the draws), duplicate
// whole queries, and occasional s == t.
std::vector<QueryPair> RandomQueries(NodeId n, std::size_t count,
                                     std::uint64_t seed) {
  Rng rng(MixSeed(seed, 0x706c616eULL));  // "plan"
  std::vector<QueryPair> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId pool = (rng.NextBounded(3) == 0) ? std::min<NodeId>(n, 5)
                                                  : n;
    QueryPair q;
    q.s = static_cast<NodeId>(rng.NextBounded(pool));
    if (rng.NextBounded(8) == 0) {
      q.t = q.s;  // s == t: a legal (zero-valued) query the plan carries
    } else {
      q.t = static_cast<NodeId>(rng.NextBounded(pool));
    }
    if (!queries.empty() && rng.NextBounded(5) == 0) {
      q = queries[rng.NextBounded(queries.size())];  // exact duplicate
    }
    queries.push_back(q);
  }
  return queries;
}

// Coverage invariant every plan must satisfy: `order` is a permutation
// of [0, n) and the group offsets tile it exactly (nonempty groups,
// front 0, back n).
void ExpectCoversEachQueryExactlyOnce(const BatchPlan& plan,
                                      std::size_t num_queries,
                                      const char* label) {
  ASSERT_EQ(plan.order.size(), num_queries) << label;
  ASSERT_GE(plan.group_offsets.size(), 1u) << label;
  EXPECT_EQ(plan.group_offsets.front(), 0u) << label;
  EXPECT_EQ(plan.group_offsets.back(), num_queries) << label;
  for (std::size_t g = 1; g < plan.group_offsets.size(); ++g) {
    EXPECT_LT(plan.group_offsets[g - 1], plan.group_offsets[g])
        << label << " empty group " << g;
  }
  std::vector<int> seen(num_queries, 0);
  for (const std::uint32_t idx : plan.order) {
    ASSERT_LT(idx, num_queries) << label;
    seen[idx]++;
  }
  for (std::size_t i = 0; i < num_queries; ++i) {
    EXPECT_EQ(seen[i], 1) << label << " query " << i;
  }
}

// Union-find over query indices via shared endpoints — the ground truth
// for what "shareable" means in the endpoint plan's contract.
struct UnionFind {
  std::vector<std::size_t> parent;
  explicit UnionFind(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), std::size_t{0});
  }
  std::size_t Find(std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }
  void Union(std::size_t a, std::size_t b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
};

std::vector<std::size_t> EndpointComponents(
    std::span<const QueryPair> queries) {
  UnionFind uf(queries.size());
  std::unordered_map<NodeId, std::size_t> first_with_endpoint;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    for (const NodeId node : {queries[i].s, queries[i].t}) {
      auto [it, inserted] = first_with_endpoint.emplace(node, i);
      if (!inserted) uf.Union(it->second, i);
    }
  }
  std::vector<std::size_t> component(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) component[i] = uf.Find(i);
  return component;
}

TEST(BatchPlanPropertyTest, EveryPlanCoversEachQueryExactlyOnce) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const std::vector<QueryPair> queries = RandomQueries(30, 40, seed);
    ExpectCoversEachQueryExactlyOnce(BatchPlan::Trivial(queries.size()),
                                     queries.size(), "Trivial");
    ExpectCoversEachQueryExactlyOnce(BatchPlan::GroupByEndpoint(queries),
                                     queries.size(), "GroupByEndpoint");
  }
  // Degenerate batches.
  ExpectCoversEachQueryExactlyOnce(BatchPlan::Trivial(0), 0, "empty");
  const std::vector<QueryPair> one = {{4, 4}};
  ExpectCoversEachQueryExactlyOnce(BatchPlan::GroupByEndpoint(one), 1,
                                   "single s==t");
}

TEST(BatchPlanPropertyTest, GroupByEndpointNeverSplitsShareablePairs) {
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
    const std::vector<QueryPair> queries = RandomQueries(24, 48, seed);
    const std::vector<std::size_t> component = EndpointComponents(queries);
    const BatchPlan plan = BatchPlan::GroupByEndpoint(queries);
    ExpectCoversEachQueryExactlyOnce(plan, queries.size(), "endpoint");
    // Group of each query under the plan.
    std::vector<std::size_t> group_of(queries.size());
    for (std::size_t g = 0; g < plan.NumGroups(); ++g) {
      for (std::uint32_t p = plan.group_offsets[g];
           p < plan.group_offsets[g + 1]; ++p) {
        group_of[plan.order[p]] = g;
      }
    }
    for (std::size_t i = 0; i < queries.size(); ++i) {
      for (std::size_t j = i + 1; j < queries.size(); ++j) {
        const bool shareable = component[i] == component[j];
        EXPECT_EQ(group_of[i] == group_of[j], shareable)
            << "seed " << seed << " queries " << i << " ("
            << queries[i].s << "," << queries[i].t << ") and " << j << " ("
            << queries[j].s << "," << queries[j].t << ")";
      }
    }
  }
}

TEST(BatchPlanPropertyTest, GroupsKeepOriginalOrderAndFirstAppearance) {
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    const std::vector<QueryPair> queries = RandomQueries(24, 40, seed);
    const BatchPlan plan = BatchPlan::GroupByEndpoint(queries);
    std::uint32_t prev_group_first = 0;
    for (std::size_t g = 0; g < plan.NumGroups(); ++g) {
      // Within a group: original submission order.
      for (std::uint32_t p = plan.group_offsets[g] + 1;
           p < plan.group_offsets[g + 1]; ++p) {
        EXPECT_LT(plan.order[p - 1], plan.order[p])
            << "seed " << seed << " group " << g;
      }
      // Across groups: ordered by first appearance.
      const std::uint32_t group_first = plan.order[plan.group_offsets[g]];
      if (g > 0) {
        EXPECT_LT(prev_group_first, group_first)
            << "seed " << seed << " group " << g;
      }
      prev_group_first = group_first;
    }
  }
}

// The load-bearing end: randomized batches through the real engine stay
// bit-identical to the serial loop for every sharing estimator, at 1, 2
// and 8 threads, under a random shuffle of the same batch — in both
// weight modes. (The curated-batch analogue lives in
// batch_determinism_test; this one drives the plans with adversarially
// random shapes.)
template <typename Factory>
void CheckRandomBatchesBitIdentical(const std::string& name,
                                    const Factory& make, NodeId num_nodes,
                                    std::uint64_t seed) {
  const std::vector<QueryPair> queries = RandomQueries(num_nodes, 32, seed);
  auto serial = make();
  ASSERT_NE(serial, nullptr) << name;
  std::vector<double> expected(queries.size(),
                               std::numeric_limits<double>::quiet_NaN());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (!serial->SupportsQuery(queries[i].s, queries[i].t)) continue;
    expected[i] = serial->Estimate(queries[i].s, queries[i].t);
  }

  for (const int threads : {1, 2, 8}) {
    auto estimator = make();
    std::vector<QueryStats> stats(queries.size());
    BatchOptions options;
    options.threads = threads;
    const BatchReport report =
        RunQueryBatch(*estimator, queries, stats, options);
    EXPECT_TRUE(report.completed) << name << " threads=" << threads;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (std::isnan(expected[i])) continue;
      EXPECT_EQ(stats[i].value, expected[i])
          << name << " seed=" << seed << " threads=" << threads
          << " query #" << i << " (" << queries[i].s << ","
          << queries[i].t << ")";
    }
  }

  // Random shuffle of the same batch: per-query answers must not move.
  std::vector<std::size_t> perm(queries.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  Rng rng(MixSeed(seed, 0x73687566ULL));
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
  }
  std::vector<QueryPair> shuffled(queries.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    shuffled[i] = queries[perm[i]];
  }
  auto estimator = make();
  std::vector<QueryStats> stats(shuffled.size());
  BatchOptions options;
  options.threads = 2;
  RunQueryBatch(*estimator, shuffled, stats, options);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    if (std::isnan(expected[perm[i]])) continue;
    EXPECT_EQ(stats[i].value, expected[perm[i]])
        << name << " seed=" << seed << " shuffled query #" << i;
  }
}

TEST(BatchPlanPropertyTest, RandomBatchesUnweightedBitIdentical) {
  const Graph graph = gen::ErdosRenyi(40, 400, 9);
  ErOptions opt = TestOptions();
  opt.lambda = ComputeSpectralBounds(graph).lambda;
  for (const std::string& name : EstimatorNames()) {
    if (!EstimatorSharesBatchWork(name)) continue;
    CheckRandomBatchesBitIdentical(
        name, [&]() { return CreateEstimator(name, graph, opt); },
        graph.NumNodes(), /*seed=*/41);
  }
}

TEST(BatchPlanPropertyTest, RandomBatchesWeightedBitIdentical) {
  const Graph skeleton = gen::ErdosRenyi(40, 400, 9);
  const WeightedGraph graph = gen::WithUniformWeights(skeleton, 0.5, 2.0, 99);
  ErOptions opt = TestOptions();
  opt.lambda = ComputeWeightedSpectralBounds(graph).lambda;
  for (const std::string& name : EstimatorNames()) {
    if (!EstimatorSharesBatchWork("W-" + name)) continue;
    CheckRandomBatchesBitIdentical(
        "W-" + name,
        [&]() { return CreateWeightedEstimator(name, graph, opt); },
        skeleton.NumNodes(), /*seed=*/42);
  }
}

}  // namespace
}  // namespace geer
