#include "query/clustering.h"

#include <memory>

#include "util/check.h"

namespace ugs {
namespace {

/// Scratch of clustering evaluations, reused across a batch's worlds.
struct ClusteringScratch {
  WorldAdjacency adjacency;
  std::vector<std::size_t> triangles;
  std::vector<VertexId> mark;  // mark[w] == u + 1: w is a neighbor of u.
};

/// Local clustering coefficients of one world into out[0..|V|).
void ClusteringInto(const UncertainGraph& graph, const World& world,
                    ClusteringScratch* scratch, double* out) {
  const std::size_t n = graph.num_vertices();
  WorldAdjacency& adjacency = scratch->adjacency;
  adjacency.Build(graph, world);
  std::vector<std::size_t>& triangles = scratch->triangles;
  std::vector<VertexId>& mark = scratch->mark;
  triangles.assign(n, 0);
  mark.assign(n, 0);

  // Each triangle u < v < w is found once: from u, mark u's neighbors,
  // then for every neighbor v > u look for marked neighbors w > v of v.
  // Counts are integers, so the order of discovery cannot change them.
  for (VertexId u = 0; u < n; ++u) {
    const std::span<const VertexId> nu = adjacency.Neighbors(u);
    for (VertexId v : nu) mark[v] = u + 1;
    for (VertexId v : nu) {
      if (v < u) continue;
      for (VertexId w : adjacency.Neighbors(v)) {
        if (w > v && mark[w] == u + 1) {
          ++triangles[u];
          ++triangles[v];
          ++triangles[w];
        }
      }
    }
  }

  for (VertexId v = 0; v < n; ++v) {
    const std::size_t deg = adjacency.Neighbors(v).size();
    out[v] = 0.0;
    if (deg >= 2) {
      out[v] = 2.0 * static_cast<double>(triangles[v]) /
               (static_cast<double>(deg) * static_cast<double>(deg - 1));
    }
  }
}

}  // namespace

std::vector<double> LocalClusteringOnWorld(const UncertainGraph& graph,
                                           const std::vector<char>& present) {
  UGS_CHECK_EQ(present.size(), graph.num_edges());
  ClusteringScratch scratch;
  std::vector<double> cc(graph.num_vertices());
  ClusteringInto(graph, World(present), &scratch, cc.data());
  return cc;
}

McSamples McClusteringCoefficient(const UncertainGraph& graph,
                                  int num_samples, Rng* rng,
                                  const SampleEngine& engine) {
  return engine.Run(
      graph, graph.num_vertices(), num_samples, rng, /*track_valid=*/false,
      [&graph]() -> SampleEngine::WorldEval {
        auto scratch = std::make_shared<ClusteringScratch>();
        return [&graph, scratch](World& world, double* row, char*) {
          ClusteringInto(graph, world, scratch.get(), row);
        };
      });
}

McSamples McClusteringCoefficient(const UncertainGraph& graph,
                                  int num_samples, Rng* rng) {
  return McClusteringCoefficient(graph, num_samples, rng,
                                 SampleEngine::Default());
}

}  // namespace ugs
