// Dataset registry for the experiment harness. Provides scaled synthetic
// stand-ins for the six SNAP datasets of Table 3 (offline environment —
// see EXPERIMENTS.md "Datasets"), plus loading real SNAP edge lists from
// disk. Each substitute matches its original's average degree and a
// heavy-tailed / small-world structure; node counts are scaled to laptop
// budgets.

#ifndef GEER_EVAL_DATASETS_H_
#define GEER_EVAL_DATASETS_H_

#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "linalg/spectral.h"

namespace geer {

/// A ready-to-query dataset: normalized graph + spectral preprocessing.
struct Dataset {
  std::string name;
  Graph graph;
  SpectralBounds spectral;

  /// Original SNAP statistics this dataset substitutes (0 if loaded from
  /// a file rather than the registry).
  std::uint64_t paper_nodes = 0;
  std::uint64_t paper_edges = 0;
};

/// Names of the six Table-3 substitutes, in the paper's order:
/// "facebook", "dblp", "youtube", "orkut", "livejournal", "friendster".
std::vector<std::string> DatasetNames();

/// Builds the named dataset. `scale` multiplies the node count (0.1 for
/// smoke tests, 1.0 for the full laptop-scale benchmark). The graph is
/// connected and non-bipartite; λ is computed and cached in the result.
/// Returns std::nullopt for unknown names.
std::optional<Dataset> MakeDataset(const std::string& name,
                                   double scale = 1.0);

/// Loads a real SNAP edge list, extracts the largest connected component,
/// breaks bipartiteness if necessary, and runs the spectral preprocessing.
std::optional<Dataset> LoadDatasetFromFile(const std::string& path);

/// One-line "name  n  m  avg-deg  lambda" summary for harness banners.
std::string DescribeDataset(const Dataset& dataset);

}  // namespace geer

#endif  // GEER_EVAL_DATASETS_H_
