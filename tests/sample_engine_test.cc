#include "query/sample_engine.h"

#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "query/world_sampler.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace ugs {
namespace {

UncertainGraph TestGraph() { return testing_util::CompleteK4(0.5); }

TEST(SampleEngineTest, FillsEveryRowExactlyOnce) {
  UncertainGraph g = TestGraph();
  SampleEngine engine(SampleEngineOptions{.num_threads = 4,
                                          .batch_size = 3});
  Rng rng(1);
  McSamples out = engine.Run(
      g, 2, 25, &rng, /*track_valid=*/false,
      []() -> SampleEngine::WorldEval {
        return [](World& world, double* row, char* valid) {
          EXPECT_EQ(valid, nullptr);
          row[0] += 1.0;  // += exposes double-evaluation of a row.
          std::vector<char> flags;
          world.CopyFlags(&flags);
          row[1] = static_cast<double>(CountPresent(flags));
        };
      });
  ASSERT_EQ(out.num_samples, 25u);
  ASSERT_EQ(out.num_units, 2u);
  EXPECT_TRUE(out.valid.empty());
  for (std::size_t s = 0; s < out.num_samples; ++s) {
    EXPECT_EQ(out.At(s, 0), 1.0) << "sample " << s;
    EXPECT_LE(out.At(s, 1), 6.0);
  }
}

TEST(SampleEngineTest, DrawsExactlyOneValueFromCallerRng) {
  UncertainGraph g = TestGraph();
  SampleEngine engine;
  Rng rng(7), reference(7);
  engine.Run(g, 1, 10, &rng, false, []() -> SampleEngine::WorldEval {
    return [](World&, double*, char*) {};
  });
  reference.Next64();
  // After one reference draw the streams must be aligned again.
  EXPECT_EQ(rng.Next64(), reference.Next64());
}

TEST(SampleEngineTest, SampleRngMatchesSplitRng) {
  Rng a = SampleEngine::SampleRng(99, 3);
  Rng b = SplitRng(99, 3);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(SampleEngineTest, BatchSizeDoesNotChangeResults) {
  UncertainGraph g = TestGraph();
  auto worlds_with = [&](int batch_size) {
    SampleEngine engine(SampleEngineOptions{.num_threads = 2,
                                            .batch_size = batch_size});
    Rng rng(42);
    return engine.Run(g, g.num_edges(), 33, &rng, false,
                      [&g]() -> SampleEngine::WorldEval {
                        return [&g](World& world, double* row, char*) {
                          for (EdgeId e = 0; e < g.num_edges(); ++e) {
                            row[e] = world.Has(e) ? 1.0 : 0.0;
                          }
                        };
                      })
        .values;
  };
  std::vector<double> one = worlds_with(1);
  EXPECT_EQ(one, worlds_with(4));
  EXPECT_EQ(one, worlds_with(64));
}

TEST(SampleEngineTest, TrackValidZeroesThenMarks) {
  UncertainGraph g = TestGraph();
  SampleEngine engine;
  Rng rng(5);
  McSamples out = engine.Run(
      g, 2, 8, &rng, /*track_valid=*/true,
      []() -> SampleEngine::WorldEval {
        return [](World&, double* row, char* valid) {
          ASSERT_NE(valid, nullptr);
          row[0] = 3.0;
          valid[0] = 1;  // Unit 1 stays invalid.
        };
      });
  ASSERT_EQ(out.valid.size(), 16u);
  for (std::size_t s = 0; s < 8; ++s) {
    EXPECT_TRUE(out.IsValid(s, 0));
    EXPECT_FALSE(out.IsValid(s, 1));
  }
  EXPECT_DOUBLE_EQ(out.UnitMean(0), 3.0);
  EXPECT_DOUBLE_EQ(out.UnitMean(1), 0.0);
}

TEST(SampleEngineTest, RunMeanAveragesInSampleOrder) {
  UncertainGraph g = TestGraph();
  SampleEngine engine(SampleEngineOptions{.num_threads = 4});
  Rng rng(9);
  double mean = engine.RunMean(
      g, 50, &rng, []() -> SampleEngine::WorldStat {
        return [](World& world) {
          std::vector<char> flags;
          world.CopyFlags(&flags);
          return static_cast<double>(CountPresent(flags));
        };
      });
  // E[present edges] = 6 * 0.5 = 3; 50 samples stay well inside [1, 5].
  EXPECT_GT(mean, 1.0);
  EXPECT_LT(mean, 5.0);
}

TEST(SampleEngineTest, SkipSamplerMatchesPlainDistribution) {
  // Same seed => different streams, but both samplers must estimate the
  // same per-edge inclusion probability.
  UncertainGraph g = testing_util::PathGraph(30, 0.15);
  SampleEngine plain;
  SampleEngine skipping(SampleEngineOptions{.use_skip_sampler = true});
  auto edge_means = [&](const SampleEngine& engine) {
    Rng rng(31);
    McSamples out = engine.Run(
        g, g.num_edges(), 4000, &rng, false,
        [&g]() -> SampleEngine::WorldEval {
          return [&g](World& world, double* row, char*) {
            for (EdgeId e = 0; e < g.num_edges(); ++e) {
              row[e] = world.Has(e) ? 1.0 : 0.0;
            }
          };
        });
    std::vector<double> means(g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) means[e] = out.UnitMean(e);
    return means;
  };
  std::vector<double> a = edge_means(plain);
  std::vector<double> b = edge_means(skipping);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_NEAR(a[e], 0.15, 0.03);
    EXPECT_NEAR(b[e], 0.15, 0.03);
  }
}

TEST(SampleEngineTest, FactoryRunsPerBatchNotPerSample) {
  UncertainGraph g = TestGraph();
  SampleEngine engine(SampleEngineOptions{.num_threads = 1,
                                          .batch_size = 10});
  std::atomic<int> factories{0};
  Rng rng(2);
  engine.Run(g, 1, 40, &rng, false,
             [&factories]() -> SampleEngine::WorldEval {
               factories.fetch_add(1);
               return [](World&, double*, char*) {};
             });
  EXPECT_EQ(factories.load(), 4);  // ceil(40 / 10) batches.
}

}  // namespace
}  // namespace ugs
