#include "query/pagerank.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "util/check.h"

namespace ugs {
namespace {

/// Scratch of PageRank evaluations, reused across the worlds of a batch.
struct PageRankScratch {
  std::vector<std::uint32_t> degree;
  std::vector<VertexId> ends;  // Present edges' (u, v), edge-id order.
  std::vector<double> rank;
  std::vector<double> next;
  std::vector<double> share;  // d * rank[u] / degree[u].
};

/// PageRank of one world into out[0..|V|). Each iteration walks the
/// present edges only, in ascending id order -- the summation order of
/// the reference definition, so every value is bit-identical to it.
void PageRankInto(const UncertainGraph& graph, const World& world,
                  const PageRankOptions& options, PageRankScratch* scratch,
                  double* out) {
  const std::size_t n = graph.num_vertices();
  UGS_CHECK(n > 0);
  const double d = options.damping;
  const std::span<const UncertainEdge> edges = graph.edges();
  const std::span<const EdgeId> present = world.present_edges();

  std::vector<std::uint32_t>& degree = scratch->degree;
  std::vector<VertexId>& ends = scratch->ends;
  degree.assign(n, 0);
  ends.resize(2 * present.size());
  for (std::size_t i = 0; i < present.size(); ++i) {
    const UncertainEdge& ed = edges[present[i]];
    ends[2 * i] = ed.u;
    ends[2 * i + 1] = ed.v;
    ++degree[ed.u];
    ++degree[ed.v];
  }

  std::vector<double>& rank = scratch->rank;
  std::vector<double>& next = scratch->next;
  std::vector<double>& share = scratch->share;
  rank.assign(n, 1.0 / static_cast<double>(n));
  next.resize(n);
  share.resize(n);
  for (int it = 0; it < options.max_iterations; ++it) {
    double dangling = 0.0;
    for (VertexId v = 0; v < n; ++v) {
      if (degree[v] == 0) {
        dangling += rank[v];
      } else {
        share[v] = d * rank[v] / static_cast<double>(degree[v]);
      }
    }
    const double base =
        (1.0 - d) / static_cast<double>(n) +
        d * dangling / static_cast<double>(n);
    std::fill(next.begin(), next.end(), base);
    for (std::size_t i = 0; i < ends.size(); i += 2) {
      next[ends[i + 1]] += share[ends[i]];
      next[ends[i]] += share[ends[i + 1]];
    }
    double change = 0.0;
    for (VertexId v = 0; v < n; ++v) change += std::abs(next[v] - rank[v]);
    rank.swap(next);
    if (change < options.tolerance) break;
  }
  std::copy(rank.begin(), rank.end(), out);
}

}  // namespace

std::vector<double> PageRankOnWorld(const UncertainGraph& graph,
                                    const std::vector<char>& present,
                                    const PageRankOptions& options) {
  UGS_CHECK_EQ(present.size(), graph.num_edges());
  PageRankScratch scratch;
  std::vector<double> rank(graph.num_vertices());
  PageRankInto(graph, World(present), options, &scratch, rank.data());
  return rank;
}

McSamples McPageRank(const UncertainGraph& graph, int num_samples, Rng* rng,
                     const PageRankOptions& options,
                     const SampleEngine& engine) {
  return engine.Run(
      graph, graph.num_vertices(), num_samples, rng, /*track_valid=*/false,
      [&graph, options]() -> SampleEngine::WorldEval {
        auto scratch = std::make_shared<PageRankScratch>();
        return [&graph, options, scratch](World& world, double* row, char*) {
          PageRankInto(graph, world, options, scratch.get(), row);
        };
      });
}

McSamples McPageRank(const UncertainGraph& graph, int num_samples, Rng* rng,
                     const PageRankOptions& options) {
  return McPageRank(graph, num_samples, rng, options,
                    SampleEngine::Default());
}

}  // namespace ugs
