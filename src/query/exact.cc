#include "query/exact.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "query/reliability.h"
#include "query/shortest_path.h"
#include "query/world_sampler.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/union_find.h"

namespace ugs {
namespace {

/// Iterates all 2^m worlds serially; calls visit(present, probability).
/// Kept for ExactWorldProbability, whose caller-supplied predicate is a
/// single instance that may hold mutable scratch.
void ForEachWorld(
    const UncertainGraph& graph,
    const std::function<void(const std::vector<char>&, double)>& visit) {
  const std::size_t m = graph.num_edges();
  UGS_CHECK_LE(m, kMaxExactEdges);
  const std::uint64_t worlds = 1ULL << m;
  std::vector<char> present(m, 0);
  for (std::uint64_t mask = 0; mask < worlds; ++mask) {
    double probability = 1.0;
    for (std::size_t e = 0; e < m; ++e) {
      bool on = (mask >> e) & 1ULL;
      present[e] = on ? 1 : 0;
      double p = graph.edge(static_cast<EdgeId>(e)).p;
      probability *= on ? p : (1.0 - p);
    }
    if (probability > 0.0) visit(present, probability);
  }
}

/// A per-chunk reduction visitor: adds a world's contribution into
/// acc[0..num_accumulators).
using ChunkVisitor = std::function<void(const World&, double, double*)>;

/// Worlds per enumeration chunk. Fixed (never derived from the thread
/// count) so the per-chunk partial sums -- and therefore the final
/// ordered reduction -- are bit-identical at any pool size. Graphs with
/// <= 12 edges run as a single chunk, which also matches the historical
/// serial summation order exactly.
constexpr std::uint64_t kWorldChunk = 1ULL << 12;

/// Enumerates all 2^m worlds in fixed chunks on `pool`. The factory
/// builds one visitor (plus scratch) per chunk; chunk partials are summed
/// in chunk order into out[0..num_accumulators), so the result is
/// bit-identical on any pool.
void ParallelWorldReduce(const UncertainGraph& graph, int num_accumulators,
                         const std::function<ChunkVisitor()>& factory,
                         double* out, ThreadPool& pool) {
  const std::size_t m = graph.num_edges();
  static_assert(kMaxExactEdges < 64, "an enumerated world is one word");
  UGS_CHECK_LE(m, kMaxExactEdges);
  const std::uint64_t worlds = 1ULL << m;
  const std::uint64_t chunk = std::min(worlds, kWorldChunk);
  const std::size_t num_chunks =
      static_cast<std::size_t>((worlds + chunk - 1) / chunk);
  const std::size_t k = static_cast<std::size_t>(num_accumulators);
  std::vector<double> partial(num_chunks * k, 0.0);

  std::vector<double> probabilities(m);
  for (std::size_t e = 0; e < m; ++e) {
    probabilities[e] = graph.edge(static_cast<EdgeId>(e)).p;
  }

  pool.ParallelFor(num_chunks, [&](std::size_t c) {
    ChunkVisitor visit = factory();
    World world;
    world.Reset(m);
    double* acc = partial.data() + c * k;
    const std::uint64_t begin = static_cast<std::uint64_t>(c) * chunk;
    const std::uint64_t end = std::min(begin + chunk, worlds);
    for (std::uint64_t mask = begin; mask < end; ++mask) {
      double probability = 1.0;
      for (std::size_t e = 0; e < m; ++e) {
        bool on = (mask >> e) & 1ULL;
        probability *= on ? probabilities[e] : (1.0 - probabilities[e]);
      }
      if (probability > 0.0) {
        // The mask is the world's one presence word.
        if (m > 0) world.words()[0] = mask;
        world.Compact();
        visit(world, probability, acc);
      }
    }
  });

  for (std::size_t a = 0; a < k; ++a) {
    double sum = 0.0;
    for (std::size_t c = 0; c < num_chunks; ++c) sum += partial[c * k + a];
    out[a] = sum;
  }
}

}  // namespace

double ExactWorldProbability(
    const UncertainGraph& graph,
    const std::function<bool(const std::vector<char>&)>& predicate) {
  double total = 0.0;
  ForEachWorld(graph, [&](const std::vector<char>& present, double prob) {
    if (predicate(present)) total += prob;
  });
  return total;
}

double ExactConnectivityProbability(const UncertainGraph& graph,
                                    ThreadPool& pool) {
  const std::size_t n = graph.num_vertices();
  if (n <= 1) return 1.0;
  double total = 0.0;
  ParallelWorldReduce(
      graph, 1,
      [&graph, n]() -> ChunkVisitor {
        auto uf = std::make_shared<UnionFind>(n);
        return [&graph, uf](const World& world, double prob, double* acc) {
          ConnectWorld(graph, world, uf.get());
          if (uf->num_components() == 1) acc[0] += prob;
        };
      },
      &total, pool);
  return total;
}

double ExactConnectivityProbability(const UncertainGraph& graph) {
  return ExactConnectivityProbability(graph, ThreadPool::Default());
}

double ExactReliability(const UncertainGraph& graph, VertexId s, VertexId t,
                        ThreadPool& pool) {
  UGS_CHECK(s < graph.num_vertices() && t < graph.num_vertices());
  double total = 0.0;
  ParallelWorldReduce(
      graph, 1,
      [&graph, s, t]() -> ChunkVisitor {
        auto uf = std::make_shared<UnionFind>(graph.num_vertices());
        return [&graph, uf, s, t](const World& world, double prob,
                                  double* acc) {
          ConnectWorld(graph, world, uf.get());
          if (uf->Connected(s, t)) acc[0] += prob;
        };
      },
      &total, pool);
  return total;
}

double ExactReliability(const UncertainGraph& graph, VertexId s, VertexId t) {
  return ExactReliability(graph, s, t, ThreadPool::Default());
}

double ExactExpectedDistance(const UncertainGraph& graph, VertexId s,
                             VertexId t, double* connectivity_probability,
                             ThreadPool& pool) {
  UGS_CHECK(s < graph.num_vertices() && t < graph.num_vertices());
  // acc[0] = Pr[s ~ t], acc[1] = sum prob * dist over connected worlds.
  double acc[2] = {0.0, 0.0};
  ParallelWorldReduce(
      graph, 2,
      [&graph, s, t]() -> ChunkVisitor {
        struct Scratch {
          WorldAdjacency adjacency;
          BfsScratch bfs;
        };
        auto scratch = std::make_shared<Scratch>();
        return [&graph, scratch, s, t](const World& world, double prob,
                                       double* a) {
          scratch->adjacency.Build(graph, world);
          BfsOnWorld(scratch->adjacency, s, {&t, 1}, &scratch->bfs);
          const int d = scratch->bfs.dist[t];
          if (d != kUnreachable) {
            a[0] += prob;
            a[1] += prob * static_cast<double>(d);
          }
        };
      },
      acc, pool);
  if (connectivity_probability != nullptr) {
    *connectivity_probability = acc[0];
  }
  return acc[0] > 0.0 ? acc[1] / acc[0] : 0.0;
}

double ExactExpectedDistance(const UncertainGraph& graph, VertexId s,
                             VertexId t, double* connectivity_probability) {
  return ExactExpectedDistance(graph, s, t, connectivity_probability,
                               ThreadPool::Default());
}

}  // namespace ugs
