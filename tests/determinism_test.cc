// Reproducibility guarantees: every sparsifier is a pure function of
// (graph, alpha, seed). These tests pin that contract -- regressions here
// usually mean hidden global state or container-order dependence.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "query/clustering.h"
#include "query/exact.h"
#include "query/pagerank.h"
#include "query/reliability.h"
#include "query/sample_engine.h"
#include "query/shortest_path.h"
#include "query/stratified.h"
#include "sparsify/ni.h"
#include "sparsify/sparsifier.h"
#include "util/thread_pool.h"
#include "util/union_find.h"

namespace ugs {
namespace {

const UncertainGraph& DeterminismGraph() {
  static const UncertainGraph* graph = [] {
    Rng rng(777);
    return new UncertainGraph(GenerateErdosRenyi(
        90, 900, ProbabilityDistribution::Uniform(0.05, 0.8), &rng));
  }();
  return *graph;
}

bool SameGraph(const UncertainGraph& a, const UncertainGraph& b) {
  if (a.num_edges() != b.num_edges()) return false;
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    if (a.edge(e).u != b.edge(e).u || a.edge(e).v != b.edge(e).v ||
        a.edge(e).p != b.edge(e).p) {
      return false;
    }
  }
  return true;
}

class SparsifierDeterminismTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(SparsifierDeterminismTest, SameSeedSameOutput) {
  auto method = MakeSparsifierByName(GetParam());
  ASSERT_TRUE(method.ok());
  Rng rng1(4242), rng2(4242);
  auto a = (*method)->Sparsify(DeterminismGraph(), 0.32, &rng1);
  auto b = (*method)->Sparsify(DeterminismGraph(), 0.32, &rng2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(SameGraph(a->graph, b->graph));
  EXPECT_EQ(a->original_edge_ids, b->original_edge_ids);
}

TEST_P(SparsifierDeterminismTest, DifferentSeedsUsuallyDiffer) {
  auto method = MakeSparsifierByName(GetParam());
  ASSERT_TRUE(method.ok());
  Rng rng1(1), rng2(2);
  auto a = (*method)->Sparsify(DeterminismGraph(), 0.32, &rng1);
  auto b = (*method)->Sparsify(DeterminismGraph(), 0.32, &rng2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // All methods have randomized backbones / sampling, so different seeds
  // should pick different edge sets on a 900-edge graph. (Equality would
  // not be a bug per se, but it would be astronomically unlikely.)
  EXPECT_FALSE(a->original_edge_ids == b->original_edge_ids);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, SparsifierDeterminismTest,
    ::testing::Values("GDBA", "GDBR-t", "GDBA2", "EMDA", "EMDR-t", "LP",
                      "LP-t", "NI", "SS"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

/// The SampleEngine contract: every sampling query returns bit-identical
/// McSamples at any engine thread count, because per-sample RNG streams
/// are derived by seed-splitting, not by draw order.
class EngineThreadCountTest : public ::testing::TestWithParam<int> {
 protected:
  static constexpr int kSamples = 64;
  const UncertainGraph& graph() { return DeterminismGraph(); }
  SampleEngine MakeEngine() {
    return SampleEngine(SampleEngineOptions{.num_threads = GetParam()});
  }
  SampleEngine MakeSerial() {
    return SampleEngine(SampleEngineOptions{.num_threads = 1});
  }
  std::vector<VertexPair> Pairs() {
    Rng rng(11);
    return SampleDistinctPairs(graph().num_vertices(), 12, &rng);
  }
};

TEST_P(EngineThreadCountTest, ReliabilityBitIdentical) {
  SampleEngine serial = MakeSerial();
  SampleEngine threaded = MakeEngine();
  Rng r1(123), r2(123);
  McSamples a = McReliability(graph(), Pairs(), kSamples, &r1, serial);
  McSamples b = McReliability(graph(), Pairs(), kSamples, &r2, threaded);
  EXPECT_TRUE(a == b);
}

TEST_P(EngineThreadCountTest, ShortestPathBitIdentical) {
  SampleEngine serial = MakeSerial();
  SampleEngine threaded = MakeEngine();
  Rng r1(124), r2(124);
  McSamples a = McShortestPath(graph(), Pairs(), kSamples, &r1, serial);
  McSamples b = McShortestPath(graph(), Pairs(), kSamples, &r2, threaded);
  EXPECT_TRUE(a == b);
}

TEST_P(EngineThreadCountTest, PageRankBitIdentical) {
  SampleEngine serial = MakeSerial();
  SampleEngine threaded = MakeEngine();
  Rng r1(125), r2(125);
  McSamples a = McPageRank(graph(), kSamples, &r1, {}, serial);
  McSamples b = McPageRank(graph(), kSamples, &r2, {}, threaded);
  EXPECT_TRUE(a == b);
}

TEST_P(EngineThreadCountTest, ClusteringBitIdentical) {
  SampleEngine serial = MakeSerial();
  SampleEngine threaded = MakeEngine();
  Rng r1(126), r2(126);
  McSamples a = McClusteringCoefficient(graph(), kSamples, &r1, serial);
  McSamples b = McClusteringCoefficient(graph(), kSamples, &r2, threaded);
  EXPECT_TRUE(a == b);
}

TEST_P(EngineThreadCountTest, ConnectivityBitIdentical) {
  SampleEngine serial = MakeSerial();
  SampleEngine threaded = MakeEngine();
  Rng r1(127), r2(127);
  EXPECT_EQ(EstimateConnectivity(graph(), kSamples, &r1, serial),
            EstimateConnectivity(graph(), kSamples, &r2, threaded));
}

TEST_P(EngineThreadCountTest, StratifiedBitIdentical) {
  SampleEngine serial = MakeSerial();
  SampleEngine threaded = MakeEngine();
  auto factory = [this]() -> WorldQuery {
    auto uf = std::make_shared<UnionFind>(graph().num_vertices());
    const UncertainGraph* g = &graph();
    return [g, uf](const World& world) {
      uf->Reset();
      for (EdgeId e = 0; e < g->num_edges(); ++e) {
        if (world.Has(e)) uf->Union(g->edge(e).u, g->edge(e).v);
      }
      return uf->num_components() == 1 ? 1.0 : 0.0;
    };
  };
  StratifiedOptions options;
  options.total_samples = 128;
  Rng r1(128), r2(128);
  EXPECT_EQ(StratifiedEstimate(graph(), factory, options, &r1, serial),
            StratifiedEstimate(graph(), factory, options, &r2, threaded));
}

TEST_P(EngineThreadCountTest, SkipSamplerBitIdentical) {
  SampleEngineOptions serial_options{.num_threads = 1,
                                     .use_skip_sampler = true};
  SampleEngineOptions threaded_options{.num_threads = GetParam(),
                                       .use_skip_sampler = true};
  SampleEngine serial(serial_options);
  SampleEngine threaded(threaded_options);
  Rng r1(129), r2(129);
  McSamples a = McReliability(graph(), Pairs(), kSamples, &r1, serial);
  McSamples b = McReliability(graph(), Pairs(), kSamples, &r2, threaded);
  EXPECT_TRUE(a == b);
}

INSTANTIATE_TEST_SUITE_P(Threads1_2_8, EngineThreadCountTest,
                         ::testing::Values(1, 2, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "t" + std::to_string(info.param);
                         });

/// Exact oracles and NI calibration dispatch to ThreadPool::Default();
/// resizing it must not change their results.
TEST(DefaultPoolDeterminismTest, ExactAndNiStableAcrossPoolSizes) {
  const UncertainGraph& g = DeterminismGraph();
  UncertainGraph small = UncertainGraph::FromEdges(
      6, {{0, 1, 0.4}, {1, 2, 0.5}, {2, 3, 0.6}, {3, 4, 0.7}, {4, 5, 0.3},
          {5, 0, 0.2}, {0, 3, 0.35}, {1, 4, 0.45}});

  std::vector<double> connectivity;
  std::vector<double> reliability;
  std::vector<std::vector<EdgeId>> ni_edges;
  for (int threads : {1, 2, 8}) {
    ThreadPool::SetDefaultThreads(threads);
    connectivity.push_back(ExactConnectivityProbability(small));
    reliability.push_back(ExactReliability(small, 0, 4));
    Rng rng(4242);
    auto r = NiSparsify(g, 0.32, {}, &rng);
    ASSERT_TRUE(r.ok());
    ni_edges.push_back(r->edges);
  }
  ThreadPool::SetDefaultThreads(0);
  for (std::size_t i = 1; i < connectivity.size(); ++i) {
    EXPECT_EQ(connectivity[0], connectivity[i]);
    EXPECT_EQ(reliability[0], reliability[i]);
    EXPECT_EQ(ni_edges[0], ni_edges[i]);
  }
}

TEST(GeneratorDeterminismTest, ChungLuSameSeed) {
  ChungLuOptions options;
  options.num_vertices = 200;
  options.avg_degree = 10.0;
  auto dist = ProbabilityDistribution::Uniform(0.1, 0.9);
  Rng r1(5), r2(5);
  EXPECT_TRUE(SameGraph(GenerateChungLu(options, dist, &r1),
                        GenerateChungLu(options, dist, &r2)));
}

}  // namespace
}  // namespace ugs
