#include "query/skip_sampler.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "gen/datasets.h"
#include "query/world_sampler.h"
#include "gen/generators.h"
#include "tests/test_util.h"

namespace ugs {
namespace {

TEST(FastSamplerTest, CertainAndImpossibleEdges) {
  UncertainGraph g = UncertainGraph::FromEdges(
      3, {{0, 1, 1.0}, {1, 2, 0.0}});
  SkipWorldSampler sampler(g);
  Rng rng(1);
  std::vector<char> present;
  for (int s = 0; s < 200; ++s) {
    sampler.Sample(&rng, &present);
    EXPECT_EQ(present[0], 1);
    EXPECT_EQ(present[1], 0);
  }
}

TEST(FastSamplerTest, FrequenciesMatchProbabilities) {
  // Edges spread across all buckets; inclusion frequency must match p
  // within binomial confidence.
  UncertainGraph g = UncertainGraph::FromEdges(
      8, {{0, 1, 0.015}, {1, 2, 0.04}, {2, 3, 0.08}, {3, 4, 0.15},
          {4, 5, 0.3}, {5, 6, 0.55}, {6, 7, 0.9}});
  SkipWorldSampler sampler(g);
  Rng rng(2);
  std::vector<char> present;
  const int kSamples = 200000;
  std::vector<int> counts(g.num_edges(), 0);
  for (int s = 0; s < kSamples; ++s) {
    sampler.Sample(&rng, &present);
    for (EdgeId e = 0; e < g.num_edges(); ++e) counts[e] += present[e];
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    double p = g.edge(e).p;
    double freq = static_cast<double>(counts[e]) / kSamples;
    double sigma = std::sqrt(p * (1 - p) / kSamples);
    EXPECT_NEAR(freq, p, 5 * sigma + 1e-4) << "edge " << e;
  }
}

TEST(FastSamplerTest, PairwiseIndependence) {
  // Joint inclusion frequency of two same-bucket edges factorizes.
  UncertainGraph g = UncertainGraph::FromEdges(
      4, {{0, 1, 0.08}, {1, 2, 0.08}, {2, 3, 0.08}});
  SkipWorldSampler sampler(g);
  Rng rng(3);
  std::vector<char> present;
  const int kSamples = 400000;
  int both = 0;
  for (int s = 0; s < kSamples; ++s) {
    sampler.Sample(&rng, &present);
    both += (present[0] && present[2]);
  }
  double freq = static_cast<double>(both) / kSamples;
  EXPECT_NEAR(freq, 0.08 * 0.08, 5e-4);
}

TEST(FastSamplerTest, ExpectedDrawsWellBelowEdgeCount) {
  // The whole point: on a Flickr-regime graph, expected RNG draws per
  // world are a small fraction of |E|.
  UncertainGraph g = MakeFlickrLike(0.3);
  SkipWorldSampler sampler(g);
  EXPECT_LT(sampler.ExpectedDraws(),
            0.5 * static_cast<double>(g.num_edges()));
}

TEST(FastSamplerTest, MeanPresentEdgesMatchesExpectation) {
  Rng g_rng(5);
  UncertainGraph g = GenerateErdosRenyi(
      50, 500, ProbabilityDistribution::TruncatedExponential(12.5), &g_rng);
  SkipWorldSampler sampler(g);
  Rng rng(6);
  std::vector<char> present;
  const int kSamples = 5000;
  double total = 0.0;
  for (int s = 0; s < kSamples; ++s) {
    sampler.Sample(&rng, &present);
    total += static_cast<double>(CountPresent(present));
  }
  EXPECT_NEAR(total / kSamples, g.ExpectedEdgeCount(),
              0.02 * g.ExpectedEdgeCount());
}

TEST(FastSamplerTest, EmptyGraph) {
  UncertainGraph g = UncertainGraph::FromEdges(2, {});
  SkipWorldSampler sampler(g);
  Rng rng(7);
  std::vector<char> present;
  sampler.Sample(&rng, &present);
  EXPECT_TRUE(present.empty());
}

TEST(GeometricSkipTableTest, LookupEqualsTheLogFormula) {
  // Every geometric bucket's ceiling (query/skip_sampler.cc) and a few
  // other caps: the table's skip must be the formula's at random draws,
  // at the smallest and largest draws, around every power of two (where
  // the guess's exponent changes) and around every tabled step.
  for (double cap : {0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 0.005, 0.3, 0.999}) {
    const GeometricSkipTable table(cap);
    ASSERT_GT(table.size(), 0u) << "table dropped at cap " << cap;
    std::vector<std::uint64_t> draws;
    Rng rng(static_cast<std::uint64_t>(cap * 1e6));
    for (int i = 0; i < 200000; ++i) draws.push_back(rng.Next64() >> 11);
    constexpr std::uint64_t kMax = (std::uint64_t{1} << 53) - 1;
    for (std::uint64_t d = 0; d < 2000; ++d) {
      draws.push_back(1 + d);
      draws.push_back(kMax - d);
    }
    for (int e = 0; e < 53; ++e) {
      for (int d = -3; d <= 3; ++d) {
        draws.push_back((std::uint64_t{1} << e) +
                        static_cast<std::uint64_t>(d));
      }
    }
    // Step j + 1 is where log(u) / log1p(-cap) crosses j + 1.
    for (std::size_t j = 0; j <= table.size() + 2; ++j) {
      const double step = std::exp(static_cast<double>(j + 1) *
                                   std::log1p(-cap)) *
                          0x1.0p53;
      for (int d = -64; d <= 64; ++d) {
        draws.push_back(static_cast<std::uint64_t>(step) +
                        static_cast<std::uint64_t>(d));
      }
    }
    for (std::uint64_t m : draws) {
      if (m == 0 || m > kMax) continue;
      ASSERT_EQ(table.Skip(m), table.LogSkip(m))
          << "cap " << cap << ", draw " << m;
    }
  }
}

TEST(FastSamplerTest, ReusedBuffersMatchAFreshWorld) {
  // Acceptance ORs each candidate's bit in, so the sampler's reset is
  // all that clears what an earlier world left: a World or flag buffer
  // left denser, all ones, or all 0xFF must come out
  // exactly as a fresh one (so must one sized for a larger graph).
  std::vector<UncertainEdge> edges;
  constexpr double kP[] = {0.0, 0.01, 0.04, 0.08, 0.15, 0.3, 0.5, 0.9, 1.0};
  for (VertexId u = 0; u < 12; ++u) {
    for (VertexId v = u + 1; v < 12; ++v) {
      edges.push_back({u, v, kP[edges.size() % 9]});
    }
  }
  const UncertainGraph g = UncertainGraph::FromEdges(12, edges);
  for (UncertainEdge& e : edges) e.p = 0.95;
  const UncertainGraph dense = UncertainGraph::FromEdges(12, edges);
  const SkipWorldSampler sampler(g);
  const SkipWorldSampler dense_sampler(dense);
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    World fresh;
    Rng fresh_rng(seed);
    sampler.Sample(&fresh_rng, &fresh);

    World after_dense;
    Rng dense_rng(seed + 1000);
    dense_sampler.Sample(&dense_rng, &after_dense);
    World all_ones(std::vector<char>(g.num_edges(), 1));
    World all_ff(std::vector<char>(g.num_edges(), static_cast<char>(0xff)));
    World longer(std::vector<char>(3 * g.num_edges(), 1));
    for (World* reused : {&after_dense, &all_ones, &all_ff, &longer}) {
      Rng rng(seed);
      sampler.Sample(&rng, reused);
      ASSERT_EQ(reused->num_edges(), fresh.num_edges()) << "seed " << seed;
      ASSERT_TRUE(std::ranges::equal(reused->words(), fresh.words()))
          << "seed " << seed;
      ASSERT_TRUE(std::equal(reused->present_edges().begin(),
                             reused->present_edges().end(),
                             fresh.present_edges().begin(),
                             fresh.present_edges().end()))
          << "seed " << seed;
    }

    std::vector<char> flags(g.num_edges(), static_cast<char>(0xff));
    Rng rng(seed);
    sampler.Sample(&rng, &flags);
    std::vector<char> fresh_flags;
    fresh.CopyFlags(&fresh_flags);
    ASSERT_EQ(flags, fresh_flags) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ugs
