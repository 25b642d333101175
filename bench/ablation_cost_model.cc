// Ablation: GEER's greedy switch rule (Eq. 17) compares the NEXT SpMV's
// arc count against h(ℓ−ℓ_b), the worst-case number of remaining AMC
// *samples*. A natural alternative charges samples by their length,
// h(ℓ−ℓ_b)·(ℓ−ℓ_b) — this bench implements both switch rules over the
// public SmmIterator/RunAmc API and reports time and chosen ℓ_b, showing
// how the cost model shifts the switch point and what that does to
// latency. Like GEER, it runs on the graph's 2-core C through the same
// PendantCore artifact (graph/algorithms.h): each query is reduced to
// its core pair in C's ids, iterated and walked on C with G's λ, in
// canonical (min, max) order. The "samples" model therefore replays
// GEER, and the bench checks every such query's ℓ_b and walk count
// against GeerEstimator's own stats. (The stand-in graphs are described
// in EXPERIMENTS.md "Datasets".)

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench/bench_common.h"
#include "core/amc.h"
#include "core/geer.h"
#include "core/smm.h"
#include "eval/queries.h"
#include "eval/table.h"
#include "graph/algorithms.h"
#include "util/check.h"
#include "util/format.h"
#include "util/timer.h"

namespace geer {
namespace {

enum class CostModel { kSamples, kSampleSteps };

// Keeps the estimate alive through the optimizer.
volatile double g_sink = 0.0;
void benchmark_sink(double v) { g_sink = v; }

struct AblationResult {
  double avg_ms = 0.0;
  double avg_lb = 0.0;
  double avg_walks = 0.0;
};

AblationResult RunVariant(const Dataset& ds,
                          const std::vector<QueryPair>& queries,
                          const ErOptions& opt, CostModel model,
                          double deadline_s) {
  const std::shared_ptr<const PendantCore<Graph>> core =
      PendantCore<Graph>::Build(ds.graph);
  const Graph& graph = core != nullptr ? core->graph() : ds.graph;
  TransitionOperator op(graph);
  GeerEstimator geer(ds.graph, opt);
  AblationResult out;
  std::size_t answered = 0;
  Deadline deadline(deadline_s);
  for (const QueryPair& q : queries) {
    Timer timer;
    const PendantForest::Reduction r =
        core != nullptr ? core->Reduce(q.s, q.t)
                        : PendantForest::Reduction{q.s, q.t, 0.0};
    if (r.a == r.b) {  // one tree: the offset is the answer, no walks
      benchmark_sink(r.offset);
      out.avg_ms += timer.ElapsedMillis();
      ++answered;
      if (deadline.Expired()) break;
      continue;
    }
    const NodeId s = std::min(r.a, r.b);
    const NodeId t = std::max(r.a, r.b);
    const std::uint64_t ds_deg = graph.Degree(s);
    const std::uint64_t dt_deg = graph.Degree(t);
    const std::uint32_t ell = RefinedEll(opt.epsilon, *opt.lambda, ds_deg,
                                         dt_deg, opt.max_ell);
    SmmIterator smm(graph, &op, s, t);
    while (smm.iterations() < ell) {
      const std::uint32_t remaining = ell - smm.iterations();
      const auto [m1s, m2s] = smm.s_top_two();
      const auto [m1t, m2t] = smm.t_top_two();
      const double psi =
          AmcPsi(remaining, m1s, m2s, ds_deg, m1t, m2t, dt_deg);
      double budget = static_cast<double>(GeerRemainingSampleBudget(
          opt.epsilon, opt.delta, opt.tau, psi));
      if (model == CostModel::kSampleSteps) budget *= remaining;
      if (static_cast<double>(smm.NextIterationCost()) > budget) break;
      smm.Advance();
    }
    AmcParams params;
    params.epsilon = opt.epsilon;
    params.delta = opt.delta;
    params.tau = opt.tau;
    params.ell_f = ell - smm.iterations();
    Rng rng(opt.seed ^ (static_cast<std::uint64_t>(s) << 32) ^ t);
    AmcRunResult run =
        RunAmc(graph, s, t, smm.svec(), smm.tvec(), params, rng);
    benchmark_sink(run.r_f + smm.rb() + r.offset);
    out.avg_ms += timer.ElapsedMillis();
    out.avg_lb += smm.iterations();
    out.avg_walks += static_cast<double>(run.walks);
    if (model == CostModel::kSamples) {
      const QueryStats stats = geer.EstimateWithStats(q.s, q.t);
      GEER_CHECK_EQ(stats.ell_b, smm.iterations())
          << "(" << q.s << "," << q.t << ")";
      GEER_CHECK_EQ(stats.walks, run.walks)
          << "(" << q.s << "," << q.t << ")";
    }
    ++answered;
    if (deadline.Expired()) break;
  }
  if (answered > 0) {
    out.avg_ms /= static_cast<double>(answered);
    out.avg_lb /= static_cast<double>(answered);
    out.avg_walks /= static_cast<double>(answered);
  }
  return out;
}

void Run(const bench::BenchArgs& args) {
  for (const Dataset& ds : args.LoadDatasets()) {
    std::printf("== Ablation: Eq.17 cost model | %s\n",
                DescribeDataset(ds).c_str());
    auto queries = RandomPairs(ds.graph, args.num_queries, args.seed);
    TextTable table({"eps", "samples: ms", "lb", "walks",
                     "sample-steps: ms", "lb", "walks"});
    for (double eps : args.epsilons) {
      ErOptions opt = args.BaseOptions(eps);
      opt.lambda = ds.spectral.lambda;
      AblationResult a = RunVariant(ds, queries, opt, CostModel::kSamples,
                                    args.deadline_seconds);
      AblationResult b = RunVariant(ds, queries, opt,
                                    CostModel::kSampleSteps,
                                    args.deadline_seconds);
      table.AddRow({FormatSig(eps, 2), FormatSig(a.avg_ms, 3),
                    FormatSig(a.avg_lb, 3), FormatSig(a.avg_walks, 3),
                    FormatSig(b.avg_ms, 3), FormatSig(b.avg_lb, 3),
                    FormatSig(b.avg_walks, 3)});
    }
    std::fputs(args.csv ? table.RenderCsv().c_str()
                        : table.Render().c_str(),
               stdout);
    std::printf("\n");
  }
}

}  // namespace
}  // namespace geer

int main(int argc, char** argv) {
  auto args = geer::bench::BenchArgs::Parse(argc, argv);
  if (args.graph_path.empty() && args.datasets == geer::DatasetNames()) {
    args.datasets = {"facebook", "orkut"};
  }
  if (args.epsilons.size() > 3) args.epsilons = {0.2, 0.05, 0.02};
  std::printf("Ablation: greedy switch rule cost models (Eq. 17 sample "
              "count vs length-weighted sample steps)\n\n");
  geer::Run(args);
  return 0;
}
