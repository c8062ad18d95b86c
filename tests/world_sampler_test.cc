#include "query/world_sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "query/skip_sampler.h"
#include "tests/test_util.h"

namespace ugs {
namespace {

/// The ascending ids of the set flags: what World::present_edges() must
/// hold after every sampler and every overwrite.
std::vector<EdgeId> SetFlags(const std::vector<char>& present) {
  std::vector<EdgeId> ids;
  for (std::size_t e = 0; e < present.size(); ++e) {
    if (present[e] != 0) ids.push_back(static_cast<EdgeId>(e));
  }
  return ids;
}

std::vector<EdgeId> PresentEdges(const World& world) {
  return {world.present_edges().begin(), world.present_edges().end()};
}

/// The world's presence bits as one byte per edge.
std::vector<char> Flags(const World& world) {
  std::vector<char> flags;
  world.CopyFlags(&flags);
  return flags;
}

/// Overwrites a (reused) world's bits with `flags` and compacts it.
void Overwrite(World* world, const std::vector<char>& flags) {
  world->Reset(flags.size());
  for (EdgeId e = 0; e < flags.size(); ++e) world->Set(e, flags[e] != 0);
  world->Compact();
}

/// 45 edges of K10 (45 is not a multiple of 8, so the compaction's tail
/// runs), with probabilities covering p = 0, p = 1 and every skip bucket.
UncertainGraph MixedGraph() {
  constexpr double kP[] = {0.0, 0.01, 0.04, 0.08, 0.15, 0.3, 0.5, 0.9, 1.0};
  std::vector<UncertainEdge> edges;
  for (VertexId u = 0; u < 10; ++u) {
    for (VertexId v = u + 1; v < 10; ++v) {
      edges.push_back({u, v, kP[edges.size() % 9]});
    }
  }
  return UncertainGraph::FromEdges(10, std::move(edges));
}

TEST(WorldSamplerTest, PresenceFlagSizes) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  Rng rng(1);
  std::vector<char> present;
  SampleWorld(g, &rng, &present);
  EXPECT_EQ(present.size(), g.num_edges());
}

TEST(WorldSamplerTest, EdgeFrequencyMatchesProbability) {
  UncertainGraph g = UncertainGraph::FromEdges(
      3, {{0, 1, 0.2}, {1, 2, 0.7}, {0, 2, 1.0}});
  Rng rng(2);
  std::vector<char> present;
  int counts[3] = {0, 0, 0};
  const int samples = 50000;
  for (int s = 0; s < samples; ++s) {
    SampleWorld(g, &rng, &present);
    for (int e = 0; e < 3; ++e) counts[e] += present[e];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(samples), 0.2, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(samples), 0.7, 0.01);
  EXPECT_EQ(counts[2], samples);  // p = 1 edge always present.
}

TEST(WorldSamplerTest, ZeroProbabilityEdgeNeverPresent) {
  UncertainGraph g = UncertainGraph::FromEdges(2, {{0, 1, 0.0}});
  Rng rng(3);
  std::vector<char> present;
  for (int s = 0; s < 1000; ++s) {
    SampleWorld(g, &rng, &present);
    EXPECT_EQ(present[0], 0);
  }
}

TEST(WorldSamplerTest, CountPresent) {
  std::vector<char> present{1, 0, 1, 1, 0};
  EXPECT_EQ(CountPresent(present), 3u);
}

TEST(WorldTest, PresentEdgesAreTheSetFlagsAfterPlainSampling) {
  UncertainGraph g = MixedGraph();
  Rng rng(11);
  World world;
  for (int s = 0; s < 200; ++s) {
    SampleWorld(g, &rng, &world);
    ASSERT_EQ(world.num_edges(), g.num_edges());
    ASSERT_EQ(PresentEdges(world), SetFlags(Flags(world))) << s;
  }
}

TEST(WorldTest, PresentEdgesAreTheSetFlagsAfterSkipSampling) {
  UncertainGraph g = MixedGraph();
  SkipWorldSampler sampler(g);
  Rng rng(12);
  World world;
  for (int s = 0; s < 200; ++s) {
    sampler.Sample(&rng, &world);
    ASSERT_EQ(world.num_edges(), g.num_edges());
    ASSERT_EQ(PresentEdges(world), SetFlags(Flags(world))) << s;
  }
}

TEST(WorldTest, WorldFlagsMatchTheFlagOverloads) {
  // The World overloads draw exactly what the flag overloads draw.
  UncertainGraph g = MixedGraph();
  SkipWorldSampler sampler(g);
  Rng a(13), b(13);
  World world;
  std::vector<char> present;
  for (int s = 0; s < 50; ++s) {
    SampleWorld(g, &a, &world);
    SampleWorld(g, &b, &present);
    ASSERT_EQ(Flags(world), present);
    sampler.Sample(&a, &world);
    sampler.Sample(&b, &present);
    ASSERT_EQ(Flags(world), present);
  }
}

TEST(WorldTest, CompactKeepsEveryNonzeroFlagAtEveryLength) {
  Rng rng(14);
  World world;
  for (std::size_t m = 0; m <= 40; ++m) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<char> flags(m);
      for (char& flag : flags) {
        // Mostly absent; present flags are 1, or any other nonzero byte.
        const std::uint64_t r = rng.NextIndex(8);
        flag = r < 5 ? 0 : (r == 5 ? 1 : (r == 6 ? 2 : -1));
      }
      ASSERT_EQ(PresentEdges(World(flags)), SetFlags(flags)) << m;
      Overwrite(&world, flags);
      ASSERT_EQ(PresentEdges(world), SetFlags(flags)) << m;
    }
  }
  EXPECT_EQ(PresentEdges(World(std::vector<char>{0, 1, 0, 7})),
            (std::vector<EdgeId>{1, 3}));
}

TEST(WorldTest, CompactTreatsEveryNonzeroByteAsPresent) {
  // 0x80 sets only the high bit; 0xFF is a negative char.
  for (const char value : {static_cast<char>(0x01), static_cast<char>(0x80),
                           static_cast<char>(0xff)}) {
    for (std::size_t m : {1u, 7u, 8u, 9u, 16u, 45u}) {
      std::vector<char> flags(m, 0);
      for (std::size_t e = 0; e < m; e += 3) flags[e] = value;
      ASSERT_EQ(PresentEdges(World(flags)), SetFlags(flags))
          << "value " << int{value} << ", length " << m;
      flags.assign(m, value);
      const World world(flags);
      ASSERT_EQ(world.present_edges().size(), m)
          << "value " << int{value} << ", length " << m;
      ASSERT_EQ(PresentEdges(world), SetFlags(flags));
    }
  }
}

TEST(WorldTest, OneWorldReusedDenseSparseDense) {
  // The list keeps its capacity across worlds; each Compact must size it
  // to the current world alone.
  const std::size_t m = 45;
  World world;
  const std::vector<char> dense(m, 1);
  std::vector<char> sparse(m, 0);
  sparse[3] = 1;
  sparse[44] = 1;
  for (const std::vector<char>& flags : {dense, sparse, dense, sparse}) {
    Overwrite(&world, flags);
    ASSERT_EQ(PresentEdges(world), SetFlags(flags));
  }
  Overwrite(&world, std::vector<char>(m, 0));
  EXPECT_TRUE(world.present_edges().empty());
  Overwrite(&world, dense);
  EXPECT_EQ(PresentEdges(world), SetFlags(dense));
}

/// The first m edges of K17 (136 edges), cycling through p = 0, p = 1
/// and every skip bucket.
UncertainGraph FirstEdgesOfK17(std::size_t m) {
  constexpr double kP[] = {0.0, 0.01, 0.04, 0.08, 0.15, 0.3, 0.5, 0.9, 1.0};
  std::vector<UncertainEdge> edges;
  for (VertexId u = 0; u < 17 && edges.size() < m; ++u) {
    for (VertexId v = u + 1; v < 17 && edges.size() < m; ++v) {
      edges.push_back({u, v, kP[edges.size() % 9]});
    }
  }
  return UncertainGraph::FromEdges(17, std::move(edges));
}

TEST(WorldTest, BitsetWorldsAtWordBoundaries) {
  // Every sampler leaves no bit set past |E|, lists exactly the set bits,
  // and a pivot overwrite plus Compact equals a fresh world built from
  // the overwritten flags.
  for (std::size_t m : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    const UncertainGraph g = FirstEdgesOfK17(m);
    ASSERT_EQ(g.num_edges(), m);
    const PlainWorldSampler plain(g);
    const SkipWorldSampler skip(g);
    Rng rng(m + 1);
    World world;
    for (int s = 0; s < 40; ++s) {
      if (s % 2 == 0) {
        plain.Sample(&rng, &world);
      } else {
        skip.Sample(&rng, &world);
      }
      ASSERT_EQ(world.num_edges(), m);
      ASSERT_EQ(world.words().size(), (m + 63) / 64) << m;
      if (m % 64 != 0) {
        ASSERT_EQ(world.words().back() >> (m % 64), 0u) << m << ", " << s;
      }
      ASSERT_EQ(PresentEdges(world), SetFlags(Flags(world))) << m;

      std::vector<char> expected = Flags(world);
      for (EdgeId e = s % 3; e < m; e += 5) {
        const bool on = rng.NextIndex(2) == 1;
        world.Set(e, on);
        expected[e] = on;
      }
      world.Compact();
      const World fresh(expected);
      ASSERT_TRUE(std::ranges::equal(world.words(), fresh.words())) << m;
      ASSERT_EQ(PresentEdges(world), PresentEdges(fresh)) << m;
      ASSERT_EQ(PresentEdges(world), SetFlags(expected)) << m;
    }
  }
}

TEST(WorldSamplerTest, PlainSamplerDrawsWhatBernoulliDraws) {
  // The table sampler must reproduce Rng::Bernoulli(p_e) over every edge
  // in id order: the same outcomes and the same draws (none for p = 0 or
  // p = 1), so the streams stay in step.
  const UncertainGraph g = MixedGraph();
  const PlainWorldSampler sampler(g);
  World world;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng a(seed), b(seed);
    sampler.Sample(&a, &world);
    std::vector<char> expected(g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      expected[e] = b.Bernoulli(g.edge(e).p) ? 1 : 0;
    }
    ASSERT_EQ(Flags(world), expected) << seed;
    ASSERT_EQ(a.Next64(), b.Next64()) << seed;
  }
}

TEST(WorldAdjacencyTest, NeighborsAreThePresentNeighbors) {
  UncertainGraph g = MixedGraph();
  Rng rng(15);
  World world;
  WorldAdjacency adjacency;
  for (int s = 0; s < 50; ++s) {
    SampleWorld(g, &rng, &world);
    adjacency.Build(g, world);
    ASSERT_EQ(adjacency.num_vertices(), g.num_vertices());
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      std::vector<VertexId> expected;
      for (const AdjacencyEntry& a : g.Neighbors(u)) {
        if (world.Has(a.edge)) expected.push_back(a.neighbor);
      }
      std::vector<VertexId> got(adjacency.Neighbors(u).begin(),
                                adjacency.Neighbors(u).end());
      std::sort(got.begin(), got.end());
      std::sort(expected.begin(), expected.end());
      ASSERT_EQ(got, expected) << "vertex " << u << ", world " << s;
    }
  }
}

TEST(McSamplesTest, UnitMeanAllValid) {
  McSamples s;
  s.num_units = 2;
  s.num_samples = 3;
  s.values = {1.0, 10.0, 2.0, 20.0, 3.0, 30.0};  // Sample-major.
  EXPECT_DOUBLE_EQ(s.UnitMean(0), 2.0);
  EXPECT_DOUBLE_EQ(s.UnitMean(1), 20.0);
}

TEST(McSamplesTest, ValidityFiltering) {
  McSamples s;
  s.num_units = 1;
  s.num_samples = 4;
  s.values = {5.0, 7.0, 100.0, 9.0};
  s.valid = {1, 1, 0, 1};
  EXPECT_DOUBLE_EQ(s.UnitMean(0), 7.0);
  EXPECT_EQ(s.UnitSamples(0), (std::vector<double>{5.0, 7.0, 9.0}));
}

TEST(McSamplesTest, NoValidSamplesGivesZeroMean) {
  McSamples s;
  s.num_units = 1;
  s.num_samples = 2;
  s.values = {5.0, 7.0};
  s.valid = {0, 0};
  EXPECT_DOUBLE_EQ(s.UnitMean(0), 0.0);
  EXPECT_TRUE(s.UnitSamples(0).empty());
}

}  // namespace
}  // namespace ugs
