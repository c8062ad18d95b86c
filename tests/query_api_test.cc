#include "query/query.h"

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_stats.h"
#include "query/clustering.h"
#include "query/estimator_policy.h"
#include "query/exact.h"
#include "query/graph_session.h"
#include "query/pagerank.h"
#include "query/reliability.h"
#include "query/shortest_path.h"
#include "query/stratified.h"
#include "tests/test_util.h"
#include "util/union_find.h"

namespace ugs {
namespace {

// ---------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------

TEST(QueryRegistryTest, KnownNamesRoundTrip) {
  std::vector<std::string> names = KnownQueryNames();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    Result<std::unique_ptr<Query>> query = MakeQueryByName(name);
    ASSERT_TRUE(query.ok()) << name;
    EXPECT_EQ((*query)->name(), name);
    EXPECT_FALSE((*query)->SupportedEstimators().empty()) << name;
  }
}

TEST(QueryRegistryTest, UnknownNameIsNotFound) {
  Result<std::unique_ptr<Query>> query = MakeQueryByName("frobnicate");
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kNotFound);
}

TEST(QueryRegistryTest, AliasesResolveToCanonicalNames) {
  EXPECT_EQ((*MakeQueryByName("cc"))->name(), "clustering");
  EXPECT_EQ((*MakeQueryByName("sp"))->name(), "shortest-path");
  EXPECT_EQ((*MakeQueryByName("mpp"))->name(), "most-probable-path");
}

TEST(QueryRegistryTest, EstimatorNamesRoundTrip) {
  for (Estimator e :
       {Estimator::kAuto, Estimator::kSampled, Estimator::kSkipSampler,
        Estimator::kStratified, Estimator::kExact,
        Estimator::kDeterministic}) {
    Result<Estimator> parsed = ParseEstimator(EstimatorName(e));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, e);
  }
  EXPECT_EQ(ParseEstimator("bogus").status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------
// Estimator-selection policy.
// ---------------------------------------------------------------------

TEST(EstimatorPolicyTest, ExplicitUnsupportedEstimatorIsInvalid) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  QueryRequest request;
  request.query = "pagerank";
  request.estimator = Estimator::kExact;
  Result<Estimator> choice = SelectEstimator(
      g, request, {Estimator::kSampled, Estimator::kSkipSampler});
  ASSERT_FALSE(choice.ok());
  EXPECT_EQ(choice.status().code(), StatusCode::kInvalidArgument);
}

TEST(EstimatorPolicyTest, ExplicitExactNeedsFeasibleEnumeration) {
  UncertainGraph g = testing_util::PathGraph(kMaxExactEdges + 5, 0.5);
  QueryRequest request;
  request.query = "connectivity";
  request.estimator = Estimator::kExact;
  Result<Estimator> choice =
      SelectEstimator(g, request, {Estimator::kSampled, Estimator::kExact});
  ASSERT_FALSE(choice.ok());
  EXPECT_EQ(choice.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EstimatorPolicyTest, AutoPrefersDeterministic) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  QueryRequest request;
  request.query = "knn";
  Result<Estimator> choice =
      SelectEstimator(g, request, {Estimator::kDeterministic});
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(*choice, Estimator::kDeterministic);
}

TEST(EstimatorPolicyTest, AutoPicksExactWhenEnumerationFitsBudget) {
  UncertainGraph g = testing_util::CompleteK4(0.5);  // 2^6 = 64 worlds.
  QueryRequest request;
  request.query = "connectivity";
  request.num_samples = 100;
  std::vector<Estimator> supported{Estimator::kSampled, Estimator::kExact};
  Result<Estimator> choice = SelectEstimator(g, request, supported);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(*choice, Estimator::kExact);

  request.num_samples = 50;  // Budget below 64 worlds: keep sampling.
  choice = SelectEstimator(g, request, supported);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(*choice, Estimator::kSampled);
}

TEST(EstimatorPolicyTest, AutoExactAccountsForPerPairEnumerationCost) {
  // The exact oracles enumerate 2^|E| worlds once per pair; a sampled
  // world serves every pair. With 3 pairs on K4 the exact cost is
  // 3 * 64 = 192 worlds, so a budget of 100 keeps sampling and a budget
  // of 192 flips to exact.
  UncertainGraph g = testing_util::CompleteK4(0.5);
  QueryRequest request;
  request.query = "reliability";
  request.pairs = {{0, 1}, {1, 2}, {2, 3}};
  std::vector<Estimator> supported{Estimator::kSampled, Estimator::kExact};
  request.num_samples = 100;
  Result<Estimator> choice = SelectEstimator(g, request, supported);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(*choice, Estimator::kSampled);
  request.num_samples = 192;
  choice = SelectEstimator(g, request, supported);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(*choice, Estimator::kExact);
}

TEST(EstimatorPolicyTest, ExactBudgetBoundariesNearShiftWidth) {
  // m = 62/63/64 edges: 2^m stops fitting the budget math (1 << 63 and
  // 1 << 64 would be wraparound / UB). Selection must stay well-defined
  // at each boundary -- auto falls back to sampling even with the
  // largest possible budget, and an explicit exact request fails
  // feasibility with a typed error instead of misbehaving.
  std::vector<Estimator> supported{Estimator::kSampled, Estimator::kExact};
  for (std::size_t vertices : {63u, 64u, 65u}) {  // 62 / 63 / 64 edges.
    UncertainGraph g = testing_util::PathGraph(vertices, 0.5);
    QueryRequest request;
    request.query = "connectivity";
    request.num_samples = std::numeric_limits<int>::max();
    Result<Estimator> choice = SelectEstimator(g, request, supported);
    ASSERT_TRUE(choice.ok()) << g.num_edges() << " edges";
    EXPECT_EQ(*choice, Estimator::kSampled) << g.num_edges() << " edges";

    request.estimator = Estimator::kExact;
    choice = SelectEstimator(g, request, supported);
    ASSERT_FALSE(choice.ok()) << g.num_edges() << " edges";
    EXPECT_EQ(choice.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(EstimatorPolicyTest, HugePairCountsCannotWrapExactBudgetMath) {
  // The per-pair enumeration cost is worlds * pairs; as a raw uint64
  // multiply a large pairs list could wrap it small and flip the policy
  // to exact on precisely the most expensive requests. The division
  // form must keep the boundary exact at large pair counts.
  UncertainGraph g = testing_util::CompleteK4(0.5);  // 2^6 = 64 worlds.
  std::vector<Estimator> supported{Estimator::kSampled, Estimator::kExact};
  QueryRequest request;
  request.query = "reliability";
  request.pairs.assign(20000, VertexPair{0, 1});

  request.num_samples = 64 * 20000 - 1;  // One world short of the cost.
  Result<Estimator> choice = SelectEstimator(g, request, supported);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(*choice, Estimator::kSampled);

  request.num_samples = 64 * 20000;  // Enumeration fits exactly.
  choice = SelectEstimator(g, request, supported);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(*choice, Estimator::kExact);

  // At the feasibility ceiling (2^24 worlds) a thousand pairs dwarf the
  // maximum representable budget: sampling, even at INT_MAX samples.
  UncertainGraph wide = testing_util::PathGraph(kMaxExactEdges + 1, 0.5);
  request.pairs.assign(1000, VertexPair{0, 1});
  request.num_samples = std::numeric_limits<int>::max();
  choice = SelectEstimator(wide, request, supported);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(*choice, Estimator::kSampled);
}

TEST(EstimatorPolicyTest, AutoPicksSkipSamplerOnLowProbabilityGraphs) {
  UncertainGraph low = testing_util::PathGraph(40, 0.1);
  QueryRequest request;
  request.query = "reliability";
  request.num_samples = 100;
  std::vector<Estimator> supported{Estimator::kSampled,
                                   Estimator::kSkipSampler};
  Result<Estimator> choice = SelectEstimator(low, request, supported);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(*choice, Estimator::kSkipSampler);

  UncertainGraph high = testing_util::PathGraph(40, 0.8);
  choice = SelectEstimator(high, request, supported);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(*choice, Estimator::kSampled);
}

TEST(EstimatorPolicyTest, CachedStatsDecideLikeTheGraph) {
  // GraphSession decides from its cached GraphStats; every decision must
  // be the one the graph overload makes (E[p] = 0.25 is the boundary).
  std::vector<UncertainGraph> graphs;
  graphs.push_back(testing_util::PathGraph(40, 0.1));
  graphs.push_back(testing_util::PathGraph(40, 0.8));
  graphs.push_back(testing_util::PathGraph(40, 0.25));
  graphs.push_back(testing_util::CompleteK4(0.3));
  graphs.push_back(testing_util::PathGraph(kMaxExactEdges + 2, 0.1));
  graphs.push_back(UncertainGraph::FromEdges(3, {}));
  const int last = static_cast<int>(Estimator::kDeterministic);
  for (const UncertainGraph& g : graphs) {
    const GraphStats stats = ComputeStats(g);
    for (const std::string& name : KnownQueryNames()) {
      const std::vector<Estimator> supported =
          (*MakeQueryByName(name))->SupportedEstimators();
      for (int e = 0; e <= last; ++e) {
        for (int num_samples : {1, 64, 1 << 20}) {
          QueryRequest request;
          request.query = name;
          request.estimator = static_cast<Estimator>(e);
          request.num_samples = num_samples;
          request.pairs = {{0, 1}};
          Result<Estimator> from_graph = SelectEstimator(g, request, supported);
          Result<Estimator> from_stats =
              SelectEstimator(stats, request, supported);
          ASSERT_EQ(from_graph.ok(), from_stats.ok());
          if (from_graph.ok()) {
            EXPECT_EQ(*from_graph, *from_stats)
                << name << " on " << g.num_edges() << " edges";
          } else {
            EXPECT_EQ(from_graph.status().code(), from_stats.status().code());
          }
        }
      }
    }
  }
}

TEST(EstimatorPolicyTest, AutoNeverPicksStratified) {
  UncertainGraph g = testing_util::PathGraph(40, 0.5);
  QueryRequest request;
  request.query = "connectivity";
  Result<Estimator> choice = SelectEstimator(
      g, request, {Estimator::kSampled, Estimator::kStratified});
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(*choice, Estimator::kSampled);
}

// ---------------------------------------------------------------------
// Golden equivalence: GraphSession output is bit-identical to the legacy
// free-function entry points, at every thread count.
// ---------------------------------------------------------------------

constexpr int kThreadLadder[] = {1, 2, 8};
constexpr int kSamples = 64;
constexpr std::uint64_t kSeed = 77;

GraphSession SessionWithThreads(int threads) {
  GraphSessionOptions options;
  options.engine.num_threads = threads;
  return GraphSession(testing_util::CompleteK4(0.5), options);
}

std::vector<VertexPair> TestPairs() { return {{0, 3}, {1, 2}, {2, 0}}; }

QueryRequest BaseRequest(const std::string& query) {
  QueryRequest request;
  request.query = query;
  request.pairs = TestPairs();
  request.sources = {0, 2};
  request.k = 3;
  request.num_samples = kSamples;
  request.seed = kSeed;
  request.estimator = Estimator::kSampled;
  return request;
}

TEST(QueryGoldenTest, ReliabilityMatchesLegacyAtEveryThreadCount) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  Rng rng(kSeed);
  McSamples legacy = McReliability(g, TestPairs(), kSamples, &rng);
  for (int threads : kThreadLadder) {
    GraphSession session = SessionWithThreads(threads);
    Result<QueryResult> result = session.Run(BaseRequest("reliability"));
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->samples == legacy) << threads << " threads";
  }
}

TEST(QueryGoldenTest, ShortestPathMatchesLegacyAtEveryThreadCount) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  Rng rng(kSeed);
  McSamples legacy = McShortestPath(g, TestPairs(), kSamples, &rng);
  for (int threads : kThreadLadder) {
    GraphSession session = SessionWithThreads(threads);
    Result<QueryResult> result = session.Run(BaseRequest("shortest-path"));
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->samples == legacy) << threads << " threads";
  }
}

TEST(QueryGoldenTest, PageRankMatchesLegacyAtEveryThreadCount) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  Rng rng(kSeed);
  McSamples legacy = McPageRank(g, kSamples, &rng);
  for (int threads : kThreadLadder) {
    GraphSession session = SessionWithThreads(threads);
    Result<QueryResult> result = session.Run(BaseRequest("pagerank"));
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->samples == legacy) << threads << " threads";
  }
}

TEST(QueryGoldenTest, ClusteringMatchesLegacyAtEveryThreadCount) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  Rng rng(kSeed);
  McSamples legacy = McClusteringCoefficient(g, kSamples, &rng);
  for (int threads : kThreadLadder) {
    GraphSession session = SessionWithThreads(threads);
    Result<QueryResult> result = session.Run(BaseRequest("clustering"));
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->samples == legacy) << threads << " threads";
  }
}

TEST(QueryGoldenTest, ConnectivityMatchesLegacyAtEveryThreadCount) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  Rng rng(kSeed);
  double legacy = EstimateConnectivity(g, kSamples, &rng);
  for (int threads : kThreadLadder) {
    GraphSession session = SessionWithThreads(threads);
    Result<QueryResult> result = session.Run(BaseRequest("connectivity"));
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result->has_scalar);
    EXPECT_EQ(result->scalar, legacy) << threads << " threads";
  }
}

TEST(QueryGoldenTest, SkipSamplerMatchesLegacySkipEngine) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  SampleEngine skip_engine(SampleEngineOptions{.use_skip_sampler = true});
  Rng rng(kSeed);
  McSamples legacy = McReliability(g, TestPairs(), kSamples, &rng,
                                   skip_engine);
  for (int threads : kThreadLadder) {
    GraphSession session = SessionWithThreads(threads);
    QueryRequest request = BaseRequest("reliability");
    request.estimator = Estimator::kSkipSampler;
    Result<QueryResult> result = session.Run(request);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->estimator, Estimator::kSkipSampler);
    EXPECT_TRUE(result->samples == legacy) << threads << " threads";
  }
}

TEST(QueryGoldenTest, StratifiedConnectivityMatchesLegacyAtEveryThreadCount) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  auto factory = [&g]() -> WorldQuery {
    auto uf = std::make_shared<UnionFind>(g.num_vertices());
    return [&g, uf](const World& world) {
      uf->Reset();
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        if (world.Has(e)) uf->Union(g.edge(e).u, g.edge(e).v);
      }
      return uf->num_components() == 1 ? 1.0 : 0.0;
    };
  };
  StratifiedOptions options;
  options.num_pivot_edges = 4;
  options.total_samples = kSamples;
  SampleEngine reference_engine(SampleEngineOptions{.num_threads = 1});
  Rng rng(kSeed);
  double legacy = StratifiedEstimate(g, factory, options, &rng,
                                     reference_engine);
  for (int threads : kThreadLadder) {
    GraphSession session = SessionWithThreads(threads);
    QueryRequest request = BaseRequest("connectivity");
    request.estimator = Estimator::kStratified;
    request.num_pivot_edges = 4;
    Result<QueryResult> result = session.Run(request);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->estimator, Estimator::kStratified);
    EXPECT_EQ(result->scalar, legacy) << threads << " threads";
  }
}

TEST(QueryGoldenTest, ExactEstimatorsMatchOracles) {
  UncertainGraph g = testing_util::CompleteK4(0.3);
  GraphSession session(testing_util::CompleteK4(0.3));

  QueryRequest connectivity = BaseRequest("connectivity");
  connectivity.estimator = Estimator::kExact;
  Result<QueryResult> conn = session.Run(connectivity);
  ASSERT_TRUE(conn.ok());
  EXPECT_EQ(conn->scalar, ExactConnectivityProbability(g));

  QueryRequest reliability = BaseRequest("reliability");
  reliability.estimator = Estimator::kExact;
  Result<QueryResult> rel = session.Run(reliability);
  ASSERT_TRUE(rel.ok());
  ASSERT_EQ(rel->means.size(), TestPairs().size());
  for (std::size_t i = 0; i < TestPairs().size(); ++i) {
    EXPECT_EQ(rel->means[i],
              ExactReliability(g, TestPairs()[i].s, TestPairs()[i].t));
  }

  QueryRequest distance = BaseRequest("shortest-path");
  distance.estimator = Estimator::kExact;
  Result<QueryResult> dist = session.Run(distance);
  ASSERT_TRUE(dist.ok());
  for (std::size_t i = 0; i < TestPairs().size(); ++i) {
    EXPECT_EQ(dist->means[i],
              ExactExpectedDistance(g, TestPairs()[i].s, TestPairs()[i].t,
                                    nullptr));
  }
}

TEST(QueryGoldenTest, KnnMatchesLegacyAtEveryThreadCount) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  for (int threads : kThreadLadder) {
    GraphSession session = SessionWithThreads(threads);
    QueryRequest request = BaseRequest("knn");
    request.estimator = Estimator::kAuto;
    Result<QueryResult> result = session.Run(request);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->estimator, Estimator::kDeterministic);
    ASSERT_EQ(result->knn.size(), request.sources.size());
    for (std::size_t i = 0; i < request.sources.size(); ++i) {
      std::vector<KnnResult> legacy =
          MostProbableKnn(g, request.sources[i], request.k);
      ASSERT_EQ(result->knn[i].size(), legacy.size());
      for (std::size_t j = 0; j < legacy.size(); ++j) {
        EXPECT_EQ(result->knn[i][j].vertex, legacy[j].vertex);
        EXPECT_EQ(result->knn[i][j].path_probability,
                  legacy[j].path_probability);
      }
    }
  }
}

TEST(QueryGoldenTest, MostProbablePathMatchesLegacyAtEveryThreadCount) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  for (int threads : kThreadLadder) {
    GraphSession session = SessionWithThreads(threads);
    QueryRequest request = BaseRequest("most-probable-path");
    request.estimator = Estimator::kAuto;
    Result<QueryResult> result = session.Run(request);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->paths.size(), TestPairs().size());
    for (std::size_t i = 0; i < TestPairs().size(); ++i) {
      MostProbablePath legacy =
          FindMostProbablePath(g, TestPairs()[i].s, TestPairs()[i].t);
      EXPECT_EQ(result->paths[i].vertices, legacy.vertices);
      EXPECT_EQ(result->paths[i].probability, legacy.probability);
      EXPECT_EQ(result->means[i], legacy.probability);
    }
  }
}

// ---------------------------------------------------------------------
// Validation.
// ---------------------------------------------------------------------

TEST(QueryValidationTest, PairQueriesRejectMissingAndOutOfRangePairs) {
  GraphSession session(testing_util::CompleteK4(0.5));
  QueryRequest request;
  request.query = "reliability";
  EXPECT_EQ(session.Run(request).status().code(),
            StatusCode::kInvalidArgument);
  request.pairs = {{0, 99}};
  EXPECT_EQ(session.Run(request).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryValidationTest, SampleCountMustBePositive) {
  GraphSession session(testing_util::CompleteK4(0.5));
  QueryRequest request = BaseRequest("connectivity");
  request.num_samples = 0;
  EXPECT_EQ(session.Run(request).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryValidationTest, KnnRejectsBadSourcesAndZeroK) {
  GraphSession session(testing_util::CompleteK4(0.5));
  QueryRequest request;
  request.query = "knn";
  EXPECT_EQ(session.Run(request).status().code(),
            StatusCode::kInvalidArgument);
  request.sources = {9};
  EXPECT_EQ(session.Run(request).status().code(),
            StatusCode::kInvalidArgument);
  request.sources = {1};
  request.k = 0;
  EXPECT_EQ(session.Run(request).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ugs
