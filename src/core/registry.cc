#include "core/registry.h"

#include "core/amc.h"
#include "core/exact.h"
#include "core/geer.h"
#include "core/hay.h"
#include "core/mc.h"
#include "core/mc2.h"
#include "core/rp.h"
#include "core/smm.h"
#include "core/solver_er.h"
#include "core/tp.h"
#include "core/tpc.h"

namespace geer {

// One factory body for both weight modes: the registry IS the list of
// weight-generic templates, instantiated per policy.
template <WeightPolicy WP>
std::unique_ptr<ErEstimator> CreateEstimatorT(
    const std::string& display_name, const typename WP::GraphT& graph,
    const ErOptions& options) {
  const std::string name = CanonicalEstimatorName(display_name);
  if (name == "GEER") {
    return std::make_unique<GeerEstimatorT<WP>>(graph, options);
  }
  if (name == "AMC") return std::make_unique<AmcEstimatorT<WP>>(graph, options);
  if (name == "SMM") return std::make_unique<SmmEstimatorT<WP>>(graph, options);
  if (name == "SMM-PengEll") {
    ErOptions opt = options;
    opt.use_peng_ell = true;
    return std::make_unique<SmmEstimatorT<WP>>(graph, opt);
  }
  if (name == "TP") return std::make_unique<TpEstimatorT<WP>>(graph, options);
  if (name == "TPC") {
    return std::make_unique<TpcEstimatorT<WP>>(graph, options);
  }
  if (name == "MC") return std::make_unique<McEstimatorT<WP>>(graph, options);
  if (name == "MC2") return std::make_unique<Mc2EstimatorT<WP>>(graph, options);
  if (name == "HAY") return std::make_unique<HayEstimatorT<WP>>(graph, options);
  if (name == "RP") return std::make_unique<RpEstimatorT<WP>>(graph, options);
  if (name == "EXACT") {
    return std::make_unique<ExactEstimatorT<WP>>(graph, options);
  }
  if (name == "CG") {
    return std::make_unique<SolverEstimatorT<WP>>(graph, options);
  }
  return nullptr;
}

template <WeightPolicy WP>
bool EstimatorFeasibleT(const std::string& display_name,
                        const typename WP::GraphT& graph,
                        const ErOptions& options) {
  const std::string name = CanonicalEstimatorName(display_name);
  if (name == "EXACT") return ExactEstimatorT<WP>::Feasible(graph);
  if (name == "RP") return RpEstimatorT<WP>::Feasible(graph, options);
  for (const std::string& known : EstimatorNames()) {
    if (known == name) return true;
  }
  return false;
}

template std::unique_ptr<ErEstimator> CreateEstimatorT<UnitWeight>(
    const std::string&, const Graph&, const ErOptions&);
template std::unique_ptr<ErEstimator> CreateEstimatorT<EdgeWeight>(
    const std::string&, const WeightedGraph&, const ErOptions&);
template bool EstimatorFeasibleT<UnitWeight>(const std::string&,
                                             const Graph&, const ErOptions&);
template bool EstimatorFeasibleT<EdgeWeight>(const std::string&,
                                             const WeightedGraph&,
                                             const ErOptions&);

std::string CanonicalEstimatorName(const std::string& name) {
  if (name.rfind("W-", 0) == 0) return name.substr(2);
  return name;
}

bool EstimatorReadsLambda(const std::string& name) {
  const std::string canonical = CanonicalEstimatorName(name);
  return canonical == "GEER" || canonical == "AMC" || canonical == "SMM" ||
         canonical == "SMM-PengEll" || canonical == "TP" ||
         canonical == "TPC";
}

bool EstimatorSharesBatchWork(const std::string& name) {
  // Keep in sync with the SharesBatchWork overrides (registry_test
  // cross-checks this against constructed instances).
  const std::string canonical = CanonicalEstimatorName(name);
  return canonical == "GEER" || canonical == "SMM" ||
         canonical == "SMM-PengEll" || canonical == "TP" ||
         canonical == "TPC";
}

std::vector<std::string> EstimatorNames() {
  return {"GEER", "AMC", "SMM", "SMM-PengEll", "TP",    "TPC",
          "MC",   "MC2", "HAY", "RP",          "EXACT", "CG"};
}

}  // namespace geer
