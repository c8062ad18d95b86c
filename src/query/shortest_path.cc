#include "query/shortest_path.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "util/check.h"

namespace ugs {

void BfsOnWorld(const WorldAdjacency& adjacency, VertexId source,
                std::vector<int>* dist) {
  const std::size_t n = adjacency.num_vertices();
  UGS_CHECK(source < n);
  dist->assign(n, kUnreachable);
  int* d = dist->data();
  // Vertices in visit order; each is enqueued once, at its final level.
  std::vector<VertexId> queue;
  queue.reserve(n);
  d[source] = 0;
  queue.push_back(source);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const VertexId u = queue[head];
    const int level = d[u] + 1;
    for (VertexId w : adjacency.Neighbors(u)) {
      if (d[w] == kUnreachable) {
        d[w] = level;
        queue.push_back(w);
      }
    }
  }
}

void BfsOnWorld(const UncertainGraph& graph, const std::vector<char>& present,
                VertexId source, std::vector<int>* dist) {
  UGS_CHECK_EQ(present.size(), graph.num_edges());
  WorldAdjacency adjacency;
  adjacency.Build(graph, World(present));
  BfsOnWorld(adjacency, source, dist);
}

std::vector<VertexPair> SampleDistinctPairs(std::size_t num_vertices,
                                            std::size_t count, Rng* rng) {
  UGS_CHECK(num_vertices >= 2);
  std::vector<VertexPair> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    VertexId s = static_cast<VertexId>(rng->NextIndex(num_vertices));
    VertexId t;
    do {
      t = static_cast<VertexId>(rng->NextIndex(num_vertices));
    } while (t == s);
    pairs.push_back({s, t});
  }
  return pairs;
}

McSamples McShortestPath(const UncertainGraph& graph,
                         const std::vector<VertexPair>& pairs,
                         int num_samples, Rng* rng,
                         const SampleEngine& engine) {
  // Group pair indices by source so one BFS serves all of them; built
  // once and shared read-only by every worker.
  auto by_source = std::make_shared<
      std::unordered_map<VertexId, std::vector<std::size_t>>>();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    (*by_source)[pairs[i].s].push_back(i);
  }

  return engine.Run(
      graph, pairs.size(), num_samples, rng, /*track_valid=*/true,
      [&graph, &pairs, by_source]() -> SampleEngine::WorldEval {
        struct Scratch {
          WorldAdjacency adjacency;
          std::vector<int> dist;
        };
        auto scratch = std::make_shared<Scratch>();
        return [&graph, &pairs, by_source, scratch](World& world, double* row,
                                                    char* valid) {
          scratch->adjacency.Build(graph, world);
          for (const auto& [source, indices] : *by_source) {
            BfsOnWorld(scratch->adjacency, source, &scratch->dist);
            for (std::size_t i : indices) {
              int d = scratch->dist[pairs[i].t];
              if (d != kUnreachable) {
                row[i] = static_cast<double>(d);
                valid[i] = 1;
              }
            }
          }
        };
      });
}

McSamples McShortestPath(const UncertainGraph& graph,
                         const std::vector<VertexPair>& pairs,
                         int num_samples, Rng* rng) {
  return McShortestPath(graph, pairs, num_samples, rng,
                        SampleEngine::Default());
}

}  // namespace ugs
