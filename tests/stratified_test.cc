#include "query/stratified.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "metrics/variance.h"
#include "query/exact.h"
#include "tests/test_util.h"
#include "util/union_find.h"

namespace ugs {
namespace {

/// Connectivity indicator as a WorldQuery.
WorldQuery ConnectivityQuery(const UncertainGraph& g) {
  return [&g](const World& world) {
    UnionFind uf(g.num_vertices());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (world.Has(e)) uf.Union(g.edge(e).u, g.edge(e).v);
    }
    return uf.num_components() == 1 ? 1.0 : 0.0;
  };
}

TEST(HighestEntropyEdgesTest, PicksClosestToHalf) {
  UncertainGraph g = UncertainGraph::FromEdges(
      4, {{0, 1, 0.99}, {1, 2, 0.5}, {2, 3, 0.1}, {0, 3, 0.45}});
  std::vector<EdgeId> pivots = HighestEntropyEdges(g, 2);
  ASSERT_EQ(pivots.size(), 2u);
  EXPECT_EQ(pivots[0], 1u);  // p = 0.5, maximal entropy.
  EXPECT_EQ(pivots[1], 3u);  // p = 0.45 next.
}

TEST(HighestEntropyEdgesTest, ClampsToEdgeCount) {
  UncertainGraph g = testing_util::PathGraph(3, 0.5);
  EXPECT_EQ(HighestEntropyEdges(g, 100).size(), 2u);
}

TEST(StratifiedTest, MatchesExactOnK4) {
  UncertainGraph g = testing_util::CompleteK4(0.3);
  double exact = ExactConnectivityProbability(g);
  StratifiedOptions options;
  options.num_pivot_edges = 4;
  options.total_samples = 4000;
  Rng rng(1);
  double estimate =
      StratifiedEstimate(g, ConnectivityQuery(g), options, &rng);
  EXPECT_NEAR(estimate, exact, 0.02);
}

TEST(StratifiedTest, AllEdgesPivotedIsExact) {
  // With every edge a pivot, each stratum is a single world: the
  // "estimate" is the exact sum of Equation (1).
  UncertainGraph g = testing_util::PathGraph(4, 0.7);
  StratifiedOptions options;
  options.num_pivot_edges = 3;  // = |E|.
  options.total_samples = 8;
  Rng rng(2);
  double estimate =
      StratifiedEstimate(g, ConnectivityQuery(g), options, &rng);
  EXPECT_NEAR(estimate, std::pow(0.7, 3), 1e-9);
}

TEST(StratifiedTest, MonteCarloAgreesOnSimpleMean) {
  // Query = number of present edges; its expectation is sum(p).
  UncertainGraph g = testing_util::CompleteK4(0.3);
  WorldQuery count = [](const World& world) {
    double c = 0;
    for (EdgeId e = 0; e < world.num_edges(); ++e) c += world.Has(e);
    return c;
  };
  Rng r1(3), r2(4);
  double mc = MonteCarloEstimate(g, count, 20000, &r1);
  StratifiedOptions options;
  options.total_samples = 20000;
  options.num_pivot_edges = 3;
  double st = StratifiedEstimate(g, count, options, &r2);
  EXPECT_NEAR(mc, 1.8, 0.05);
  EXPECT_NEAR(st, 1.8, 0.05);
}

TEST(StratifiedTest, ReducesVarianceVsPlainMc) {
  // Repeated-run variance of the connectivity estimator: stratification
  // over the highest-entropy edges must not increase it (it removes the
  // across-strata component).
  UncertainGraph g = testing_util::CompleteK4(0.4);
  WorldQuery query = ConnectivityQuery(g);
  const int kBudget = 256;
  const int kRuns = 60;
  Rng rng(5);
  auto mc_estimator = [&](Rng* r) {
    return std::vector<double>{MonteCarloEstimate(g, query, kBudget, r)};
  };
  StratifiedOptions options;
  options.num_pivot_edges = 4;
  options.total_samples = kBudget;
  auto stratified_estimator = [&](Rng* r) {
    return std::vector<double>{StratifiedEstimate(g, query, options, r)};
  };
  Rng v1(6), v2(7);
  double mc_var = MeanEstimatorVariance(mc_estimator, kRuns, &v1);
  double st_var = MeanEstimatorVariance(stratified_estimator, kRuns, &v2);
  EXPECT_LT(st_var, mc_var * 1.1);  // Allow 10% estimation noise.
}

TEST(StratifiedTest, DeterministicEdgesSkipImpossibleStrata) {
  // p = 1 pivot: half the strata are impossible; renormalization keeps
  // the estimate unbiased.
  UncertainGraph g = UncertainGraph::FromEdges(
      3, {{0, 1, 1.0}, {1, 2, 0.5}});
  StratifiedOptions options;
  options.num_pivot_edges = 2;
  options.total_samples = 2000;
  Rng rng(8);
  double estimate =
      StratifiedEstimate(g, ConnectivityQuery(g), options, &rng);
  EXPECT_NEAR(estimate, 0.5, 1e-9);  // Exact: all strata enumerated.
}

TEST(StratifiedTest, PivotOverwriteRederivesPresentEdges) {
  // Every world the query sees has its pivots forced to the stratum's
  // assignment; its present-edge list must still be exactly the set
  // flags, or the union-find and BFS kernels would read a stale world.
  UncertainGraph g = testing_util::CompleteK4(0.5);
  auto factory = []() -> WorldQuery {
    return [](const World& world) {
      std::vector<EdgeId> expected;
      for (EdgeId e = 0; e < world.num_edges(); ++e) {
        if (world.Has(e)) expected.push_back(e);
      }
      return std::ranges::equal(world.present_edges(), expected) ? 1.0 : 0.0;
    };
  };
  StratifiedOptions options;
  options.num_pivot_edges = 4;
  options.total_samples = 256;
  Rng rng(10);
  SampleEngine engine(SampleEngineOptions{.num_threads = 2});
  EXPECT_EQ(StratifiedEstimate(g, factory, options, &rng, engine), 1.0);
}

TEST(StratifiedTest, EmptyGraphQueryStillRuns) {
  UncertainGraph g = UncertainGraph::FromEdges(1, {});
  StratifiedOptions options;
  Rng rng(9);
  WorldQuery constant = [](const World&) { return 42.0; };
  double estimate = StratifiedEstimate(g, constant, options, &rng);
  EXPECT_DOUBLE_EQ(estimate, 42.0);
}

}  // namespace
}  // namespace ugs
