#include "query/shortest_path.h"

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>

#include "util/check.h"

namespace ugs {

void BfsOnWorld(const WorldAdjacency& adjacency, VertexId source,
                std::span<const VertexId> targets, BfsScratch* scratch) {
  const std::size_t n = adjacency.num_vertices();
  UGS_CHECK(source < n);
  std::vector<int>& dist = scratch->dist;
  std::vector<VertexId>& queue = scratch->queue;
  if (dist.size() != n) {
    dist.assign(n, kUnreachable);
    scratch->is_target.assign(n, 0);
    queue.clear();
    queue.reserve(n);
  }
  // Reset only what the last search labelled (as osrm's
  // BinaryHeap::Clear resets only its inserted nodes).
  int* d = dist.data();
  for (VertexId v : queue) d[v] = kUnreachable;
  queue.clear();
  // Distinct targets still unlabelled; an empty list never reaches 0.
  char* is_target = scratch->is_target.data();
  std::size_t remaining = targets.empty() ? SIZE_MAX : 0;
  for (VertexId t : targets) {
    UGS_CHECK(t < n);
    remaining += is_target[t] == 0;
    is_target[t] = 1;
  }
  // Vertices in visit order; each is enqueued once, at its final level.
  d[source] = 0;
  queue.push_back(source);
  remaining -= is_target[source];
  for (std::size_t head = 0; remaining != 0 && head < queue.size();
       ++head) {
    const VertexId u = queue[head];
    const int level = d[u] + 1;
    for (VertexId w : adjacency.Neighbors(u)) {
      if (d[w] != kUnreachable) continue;
      d[w] = level;
      queue.push_back(w);
      remaining -= is_target[w];
      if (remaining == 0) break;
    }
  }
  for (VertexId t : targets) is_target[t] = 0;
}

void BfsOnWorld(const UncertainGraph& graph, const std::vector<char>& present,
                VertexId source, std::vector<int>* dist) {
  UGS_CHECK_EQ(present.size(), graph.num_edges());
  WorldAdjacency adjacency;
  adjacency.Build(graph, World(present));
  BfsScratch scratch;
  BfsOnWorld(adjacency, source, {}, &scratch);
  *dist = std::move(scratch.dist);
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
  // Group pairs by source so one BFS serves all of them and stops at
  // their last target; built once and shared read-only by every worker.
  struct Source {
    VertexId vertex;
    std::vector<VertexId> targets;
    std::vector<std::size_t> pairs;
  };
  auto sources = std::make_shared<std::vector<Source>>();
  std::unordered_map<VertexId, std::size_t> slot;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [it, fresh] = slot.try_emplace(pairs[i].s, sources->size());
    if (fresh) sources->push_back({pairs[i].s, {}, {}});
    Source& source = (*sources)[it->second];
    source.targets.push_back(pairs[i].t);
    source.pairs.push_back(i);
  }

  return engine.Run(
      graph, pairs.size(), num_samples, rng, /*track_valid=*/true,
      [&graph, &pairs, sources]() -> SampleEngine::WorldEval {
        struct Scratch {
          WorldAdjacency adjacency;
          BfsScratch bfs;
        };
        auto scratch = std::make_shared<Scratch>();
        return [&graph, &pairs, sources, scratch](World& world, double* row,
                                                  char* valid) {
          scratch->adjacency.Build(graph, world);
          for (const Source& source : *sources) {
            BfsOnWorld(scratch->adjacency, source.vertex, source.targets,
                       &scratch->bfs);
            for (std::size_t i : source.pairs) {
              int d = scratch->bfs.dist[pairs[i].t];
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
