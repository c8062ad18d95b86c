#ifndef UGS_QUERY_SHORTEST_PATH_H_
#define UGS_QUERY_SHORTEST_PATH_H_

#include <span>
#include <vector>

#include "graph/uncertain_graph.h"
#include "query/sample_engine.h"
#include "query/world_sampler.h"
#include "util/random.h"

namespace ugs {

/// DEPRECATED for direct use: prefer the unified Query API -- request
/// "shortest-path" through GraphSession (query/graph_session.h).
/// McShortestPath remains as the compute kernel the registry dispatches
/// to, so results are bit-identical either way.

/// Distance marker for unreachable vertices in a world.
inline constexpr int kUnreachable = -1;

/// A source/target query pair.
struct VertexPair {
  VertexId s = 0;
  VertexId t = 0;
};

/// Scratch of BfsOnWorld, reused across the sources and worlds of a
/// batch so no search allocates or clears all |V| entries.
struct BfsScratch {
  /// Hop distance of each vertex the last search labelled; kUnreachable
  /// everywhere else.
  std::vector<int> dist;
  /// The last search's labelled vertices in visit order: the only
  /// entries of `dist` the next search resets.
  std::vector<VertexId> queue;
  /// Marks the running search's targets; all zero between searches.
  std::vector<char> is_target;
};

/// BFS hop distances from `source` over one world's compacted adjacency
/// into scratch->dist (|V| entries; unreached vertices read
/// kUnreachable). The search stops as soon as every vertex of `targets`
/// is labelled: BFS labels each vertex once, at its final level, so the
/// targets' distances are exact, while vertices beyond them may be left
/// unlabelled. Empty `targets` searches source's whole component.
/// Worlds are unweighted (paper assumption), so BFS is the shortest-path
/// computation. Build the adjacency once per world and reuse it for
/// every source.
void BfsOnWorld(const WorldAdjacency& adjacency, VertexId source,
                std::span<const VertexId> targets, BfsScratch* scratch);

/// All BFS distances from `source` in the world given by the presence
/// flags (builds the world's adjacency first); dist is resized to |V|.
void BfsOnWorld(const UncertainGraph& graph, const std::vector<char>& present,
                VertexId source, std::vector<int>* dist);

/// Draws `count` distinct ordered pairs (s != t) uniformly.
std::vector<VertexPair> SampleDistinctPairs(std::size_t num_vertices,
                                            std::size_t count, Rng* rng);

/// Monte-Carlo shortest-path distance (query (ii) of Section 6.3):
/// unit = pair; a sample is valid only when the pair is connected in that
/// world ("excluding the ones that disconnect them"). Each world's
/// adjacency is compacted once and shared by all sources; pairs sharing a
/// source share one BFS per world. Worlds are dispatched through `engine`
/// (deterministic at any thread count); the Rng*-only overload uses
/// SampleEngine::Default().
McSamples McShortestPath(const UncertainGraph& graph,
                         const std::vector<VertexPair>& pairs,
                         int num_samples, Rng* rng,
                         const SampleEngine& engine);
McSamples McShortestPath(const UncertainGraph& graph,
                         const std::vector<VertexPair>& pairs,
                         int num_samples, Rng* rng);

}  // namespace ugs

#endif  // UGS_QUERY_SHORTEST_PATH_H_
