// Name-based estimator factories, so the benchmark harness, CLI and
// examples can select algorithms from the command line. This is the one
// module that maps a weight mode onto the estimator templates: callers
// above it take the weight policy as a template parameter and call
// CreateEstimatorT<WP> / EstimatorFeasibleT<WP>.

#ifndef GEER_CORE_REGISTRY_H_
#define GEER_CORE_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/options.h"
#include "graph/graph.h"
#include "graph/weight_policy.h"
#include "graph/weighted_graph.h"

namespace geer {

/// Creates the WP instantiation of the estimator registered under
/// `name` — the one factory behind both weight modes (every estimator
/// body is a weight-generic template; see graph/weight_policy.h). Known
/// names: "GEER", "AMC", "SMM", "SMM-PengEll", "TP", "TPC", "MC", "MC2",
/// "HAY", "RP", "EXACT", "CG" (case-sensitive), each also accepted with
/// the "W-" display prefix ("W-GEER" ≡ "GEER"). Returns nullptr for
/// unknown names. Construction may abort if the algorithm's
/// preconditions fail (e.g. EXACT on a too-large graph) — pre-check with
/// EstimatorFeasibleT. Instantiated for UnitWeight and EdgeWeight.
template <WeightPolicy WP>
std::unique_ptr<ErEstimator> CreateEstimatorT(
    const std::string& name, const typename WP::GraphT& graph,
    const ErOptions& options);

/// Estimators hold a pointer to `graph` for their whole lifetime, so a
/// temporary would dangle past the call — rejected at compile time.
template <WeightPolicy WP>
std::unique_ptr<ErEstimator> CreateEstimatorT(
    const std::string& name, typename WP::GraphT&& graph,
    const ErOptions& options) = delete;

/// True iff `name` (canonical or "W-"-prefixed) is registered and can be
/// constructed for this graph/options without violating resource
/// preconditions (EXACT's dense cap, RP's sketch memory budget).
template <WeightPolicy WP>
bool EstimatorFeasibleT(const std::string& name,
                        const typename WP::GraphT& graph,
                        const ErOptions& options);

/// All registered names, canonical form, in the paper's presentation
/// order. Every one generalizes to conductance graphs.
std::vector<std::string> EstimatorNames();

/// Weight-mode spellings of the two templates above, for callers that
/// hold a concrete graph type.
inline std::unique_ptr<ErEstimator> CreateEstimator(
    const std::string& name, const Graph& graph, const ErOptions& options) {
  return CreateEstimatorT<UnitWeight>(name, graph, options);
}
std::unique_ptr<ErEstimator> CreateEstimator(const std::string& name,
                                             Graph&& graph,
                                             const ErOptions& options) = delete;
inline bool EstimatorFeasible(const std::string& name, const Graph& graph,
                              const ErOptions& options) {
  return EstimatorFeasibleT<UnitWeight>(name, graph, options);
}
inline std::unique_ptr<ErEstimator> CreateWeightedEstimator(
    const std::string& name, const WeightedGraph& graph,
    const ErOptions& options) {
  return CreateEstimatorT<EdgeWeight>(name, graph, options);
}
std::unique_ptr<ErEstimator> CreateWeightedEstimator(
    const std::string& name, WeightedGraph&& graph,
    const ErOptions& options) = delete;
inline bool WeightedEstimatorFeasible(const std::string& name,
                                      const WeightedGraph& graph,
                                      const ErOptions& options) {
  return EstimatorFeasibleT<EdgeWeight>(name, graph, options);
}

/// Strips the "W-" display prefix ("W-GEER" → "GEER"); canonical names
/// pass through unchanged. Does not validate the name.
std::string CanonicalEstimatorName(const std::string& name);

/// True iff the algorithm behind `name` (canonical or "W-"-prefixed)
/// reads options.lambda — the walk-length formulas of Eq. (5)/(6).
/// Callers use it to decide whether to precompute λ once per graph;
/// estimators without a precomputed λ run Lanczos themselves.
bool EstimatorReadsLambda(const std::string& name);

/// True iff the algorithm's EstimateBatch amortizes work across a
/// shared-endpoint query group (TP/TPC reuse the key's walk populations,
/// SMM/GEER its SpMV iterates). The one source of this capability:
/// callers holding an instance pass its Name(). EXACT/CG/RP instead
/// share construction-time state (factorization / solver / sketch)
/// across batch workers, which this predicate does not count.
bool EstimatorSharesBatchWork(const std::string& name);

}  // namespace geer

#endif  // GEER_CORE_REGISTRY_H_
