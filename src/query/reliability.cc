#include "query/reliability.h"

#include <memory>

#include "util/check.h"

namespace ugs {

void ConnectWorld(const UncertainGraph& graph, const World& world,
                  UnionFind* uf) {
  uf->Reset();
  const std::span<const UncertainEdge> edges = graph.edges();
  for (EdgeId e : world.present_edges()) uf->Union(edges[e].u, edges[e].v);
}

McSamples McReliability(const UncertainGraph& graph,
                        const std::vector<VertexPair>& pairs,
                        int num_samples, Rng* rng,
                        const SampleEngine& engine) {
  return engine.Run(
      graph, pairs.size(), num_samples, rng, /*track_valid=*/false,
      [&graph, &pairs]() -> SampleEngine::WorldEval {
        auto uf = std::make_shared<UnionFind>(graph.num_vertices());
        return [&graph, &pairs, uf](World& world, double* row, char*) {
          ConnectWorld(graph, world, uf.get());
          for (std::size_t i = 0; i < pairs.size(); ++i) {
            row[i] = uf->Connected(pairs[i].s, pairs[i].t) ? 1.0 : 0.0;
          }
        };
      });
}

McSamples McReliability(const UncertainGraph& graph,
                        const std::vector<VertexPair>& pairs,
                        int num_samples, Rng* rng) {
  return McReliability(graph, pairs, num_samples, rng,
                       SampleEngine::Default());
}

std::vector<double> EstimateReliability(const UncertainGraph& graph,
                                        const std::vector<VertexPair>& pairs,
                                        int num_samples, Rng* rng) {
  McSamples samples = McReliability(graph, pairs, num_samples, rng);
  std::vector<double> out(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    out[i] = samples.UnitMean(i);
  }
  return out;
}

double EstimateConnectivity(const UncertainGraph& graph, int num_samples,
                            Rng* rng, const SampleEngine& engine) {
  UGS_CHECK(num_samples > 0);
  if (graph.num_vertices() <= 1) return 1.0;
  return engine.RunMean(
      graph, num_samples, rng, [&graph]() -> SampleEngine::WorldStat {
        auto uf = std::make_shared<UnionFind>(graph.num_vertices());
        return [&graph, uf](World& world) {
          ConnectWorld(graph, world, uf.get());
          return uf->num_components() == 1 ? 1.0 : 0.0;
        };
      });
}

double EstimateConnectivity(const UncertainGraph& graph, int num_samples,
                            Rng* rng) {
  return EstimateConnectivity(graph, num_samples, rng,
                              SampleEngine::Default());
}

}  // namespace ugs
