#include "query/shortest_path.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace ugs {
namespace {

TEST(BfsTest, PathGraphDistances) {
  UncertainGraph g = testing_util::PathGraph(6, 0.5);
  std::vector<char> present(g.num_edges(), 1);
  std::vector<int> dist;
  BfsOnWorld(g, present, 0, &dist);
  for (int v = 0; v < 6; ++v) EXPECT_EQ(dist[v], v);
}

TEST(BfsTest, AbsentEdgeBreaksPath) {
  UncertainGraph g = testing_util::PathGraph(6, 0.5);
  std::vector<char> present(g.num_edges(), 1);
  present[2] = 0;  // Break between vertices 2 and 3.
  std::vector<int> dist;
  BfsOnWorld(g, present, 0, &dist);
  EXPECT_EQ(dist[2], 2);
  EXPECT_EQ(dist[3], kUnreachable);
  EXPECT_EQ(dist[5], kUnreachable);
}

TEST(BfsTest, ShortcutPreferred) {
  // Cycle 0-1-2-3-0: distance 0->2 is 2 via either side; remove one side
  // and it is still 2; add chord 0-2 and it becomes 1.
  UncertainGraph g = UncertainGraph::FromEdges(
      4, {{0, 1, 0.5}, {1, 2, 0.5}, {2, 3, 0.5}, {0, 3, 0.5}, {0, 2, 0.5}});
  std::vector<char> present(g.num_edges(), 1);
  std::vector<int> dist;
  BfsOnWorld(g, present, 0, &dist);
  EXPECT_EQ(dist[2], 1);
  present[4] = 0;  // Remove the chord.
  BfsOnWorld(g, present, 0, &dist);
  EXPECT_EQ(dist[2], 2);
}

TEST(BfsTest, SourceDistanceZero) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  std::vector<char> present(g.num_edges(), 0);
  std::vector<int> dist;
  BfsOnWorld(g, present, 2, &dist);
  EXPECT_EQ(dist[2], 0);
  EXPECT_EQ(dist[0], kUnreachable);
}

/// A random simple graph on n vertices with `m` edges of probability 0.3.
UncertainGraph RandomGraph(std::size_t n, std::size_t m, Rng* rng) {
  std::set<std::pair<VertexId, VertexId>> pairs;
  while (pairs.size() < m) {
    const auto u = static_cast<VertexId>(rng->NextIndex(n));
    const auto v = static_cast<VertexId>(rng->NextIndex(n));
    if (u != v) pairs.emplace(std::min(u, v), std::max(u, v));
  }
  std::vector<UncertainEdge> edges;
  for (const auto& [u, v] : pairs) edges.push_back({u, v, 0.3});
  return UncertainGraph::FromEdges(n, std::move(edges));
}

TEST(BfsTest, TargetBoundedSearchMatchesTheFullSearch) {
  // One scratch serves every source, world and graph size, as in a
  // batch: a search stopped at its targets (duplicates and the source
  // itself included) labels them exactly as the exhaustive search does,
  // and what it leaves behind never leaks into the next search.
  Rng rng(21);
  BfsScratch scratch;
  for (std::size_t n : {60u, 200u, 60u}) {
    const UncertainGraph g = RandomGraph(n, 2 * n, &rng);
    World world;
    WorldAdjacency adjacency;
    for (int w = 0; w < 30; ++w) {
      SampleWorld(g, &rng, &world);
      adjacency.Build(g, world);
      for (int q = 0; q < 10; ++q) {
        const auto source = static_cast<VertexId>(rng.NextIndex(n));
        std::vector<VertexId> targets;
        for (std::size_t k = rng.NextIndex(4); k > 0; --k) {
          targets.push_back(static_cast<VertexId>(rng.NextIndex(n)));
        }
        if (q % 3 == 0) targets.push_back(source);
        if (!targets.empty() && q % 2 == 0) targets.push_back(targets[0]);

        BfsScratch full;
        BfsOnWorld(adjacency, source, {}, &full);
        BfsOnWorld(adjacency, source, targets, &scratch);
        ASSERT_EQ(scratch.dist.size(), n);
        for (VertexId t : targets) {
          ASSERT_EQ(scratch.dist[t], full.dist[t])
              << "n " << n << ", world " << w << ", source " << source
              << ", target " << t;
        }
        // Whatever this search labelled, it labelled at the final level.
        for (VertexId v = 0; v < n; ++v) {
          if (scratch.dist[v] != kUnreachable) {
            ASSERT_EQ(scratch.dist[v], full.dist[v]) << v;
          }
        }
      }
    }
  }
}

TEST(SamplePairsTest, DistinctEndpointsInRange) {
  Rng rng(1);
  std::vector<VertexPair> pairs = SampleDistinctPairs(50, 200, &rng);
  EXPECT_EQ(pairs.size(), 200u);
  for (const VertexPair& p : pairs) {
    EXPECT_NE(p.s, p.t);
    EXPECT_LT(p.s, 50u);
    EXPECT_LT(p.t, 50u);
  }
}

TEST(McShortestPathTest, CertainPathGraphExactDistances) {
  UncertainGraph g = testing_util::PathGraph(5, 1.0);
  Rng rng(2);
  std::vector<VertexPair> pairs{{0, 4}, {1, 3}};
  McSamples s = McShortestPath(g, pairs, 10, &rng);
  EXPECT_EQ(s.num_units, 2u);
  for (std::size_t sample = 0; sample < s.num_samples; ++sample) {
    EXPECT_TRUE(s.IsValid(sample, 0));
    EXPECT_DOUBLE_EQ(s.At(sample, 0), 4.0);
    EXPECT_DOUBLE_EQ(s.At(sample, 1), 2.0);
  }
}

TEST(McShortestPathTest, DisconnectedSamplesMarkedInvalid) {
  // Single edge with p = 0.3: the pair is connected in ~30% of worlds;
  // invalid samples must be excluded (paper's SP conditioning).
  UncertainGraph g = UncertainGraph::FromEdges(2, {{0, 1, 0.3}});
  Rng rng(3);
  std::vector<VertexPair> pairs{{0, 1}};
  McSamples s = McShortestPath(g, pairs, 2000, &rng);
  std::size_t valid = 0;
  for (std::size_t sample = 0; sample < s.num_samples; ++sample) {
    if (s.IsValid(sample, 0)) {
      EXPECT_DOUBLE_EQ(s.At(sample, 0), 1.0);
      ++valid;
    }
  }
  EXPECT_NEAR(static_cast<double>(valid) / s.num_samples, 0.3, 0.03);
}

TEST(McShortestPathTest, SharedSourceGrouping) {
  // Multiple pairs sharing a source must produce consistent results.
  UncertainGraph g = testing_util::PathGraph(6, 1.0);
  Rng rng(4);
  std::vector<VertexPair> pairs{{0, 1}, {0, 3}, {0, 5}, {2, 4}};
  McSamples s = McShortestPath(g, pairs, 5, &rng);
  for (std::size_t sample = 0; sample < s.num_samples; ++sample) {
    EXPECT_DOUBLE_EQ(s.At(sample, 0), 1.0);
    EXPECT_DOUBLE_EQ(s.At(sample, 1), 3.0);
    EXPECT_DOUBLE_EQ(s.At(sample, 2), 5.0);
    EXPECT_DOUBLE_EQ(s.At(sample, 3), 2.0);
  }
}

}  // namespace
}  // namespace ugs
