#include "query/graph_session.h"

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "query/reliability.h"
#include "util/thread_pool.h"
#include "tests/test_util.h"

namespace ugs {
namespace {

QueryRequest ConnectivityRequest(std::uint64_t seed) {
  QueryRequest request;
  request.query = "connectivity";
  request.num_samples = 32;
  request.seed = seed;
  request.estimator = Estimator::kSampled;
  return request;
}

TEST(GraphSessionTest, OpenMissingFileFails) {
  Result<std::unique_ptr<GraphSession>> session =
      GraphSession::Open("/nonexistent/graph.txt");
  ASSERT_FALSE(session.ok());
}

TEST(GraphSessionTest, OpenLoadsGraphAndCachesStats) {
  UncertainGraph g = testing_util::PaperFigure2Graph();
  std::string path = ::testing::TempDir() + "/session_graph.txt";
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  Result<std::unique_ptr<GraphSession>> session = GraphSession::Open(path);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->graph().num_vertices(), g.num_vertices());
  EXPECT_EQ((*session)->graph().num_edges(), g.num_edges());
  GraphStats expected = ComputeStats(g);
  EXPECT_EQ((*session)->stats().num_edges, expected.num_edges);
  EXPECT_DOUBLE_EQ((*session)->stats().entropy_bits, expected.entropy_bits);
}

TEST(GraphSessionTest, ResultRecordsCanonicalNameEstimatorAndTime) {
  GraphSession session(testing_util::CompleteK4(0.5));
  QueryRequest request;
  request.query = "cc";  // Alias; the result reports the canonical name.
  request.num_samples = 8;
  Result<QueryResult> result = session.Run(request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->query, "clustering");
  EXPECT_NE(result->estimator, Estimator::kAuto);
  EXPECT_GE(result->seconds, 0.0);
}

TEST(GraphSessionTest, UnknownQuerySurfacesNotFound) {
  GraphSession session(testing_util::CompleteK4(0.5));
  QueryRequest request;
  request.query = "nope";
  Result<QueryResult> result = session.Run(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(GraphSessionTest, BatchAnswersEveryRequestInOrder) {
  GraphSession session(testing_util::CompleteK4(0.5));
  std::vector<QueryRequest> batch;
  batch.push_back(ConnectivityRequest(1));
  QueryRequest reliability;
  reliability.query = "reliability";
  reliability.pairs = {{0, 3}};
  reliability.num_samples = 32;
  reliability.seed = 5;
  batch.push_back(reliability);
  QueryRequest knn;
  knn.query = "knn";
  knn.sources = {0};
  knn.k = 2;
  batch.push_back(knn);

  std::vector<Result<QueryResult>> results = session.RunBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "request " << i;
  }
  EXPECT_EQ(results[0]->query, "connectivity");
  EXPECT_EQ(results[1]->query, "reliability");
  EXPECT_EQ(results[2]->query, "knn");
}

TEST(GraphSessionTest, BatchFailuresAreIsolatedPerRequest) {
  GraphSession session(testing_util::CompleteK4(0.5));
  QueryRequest bad;
  bad.query = "definitely-not-registered";
  std::vector<QueryRequest> batch{ConnectivityRequest(1), bad,
                                  ConnectivityRequest(2)};
  std::vector<Result<QueryResult>> results = session.RunBatch(batch);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(results[2].ok());
}

TEST(GraphSessionTest, BatchResultsMatchIndividualRunsAtEveryThreadCount) {
  // Batch execution must neither reorder nor couple requests: each slot
  // is bit-identical to running the request alone, at any thread count.
  std::vector<QueryRequest> batch;
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    batch.push_back(ConnectivityRequest(seed));
  }
  QueryRequest pagerank;
  pagerank.query = "pagerank";
  pagerank.num_samples = 16;
  pagerank.seed = 44;
  batch.push_back(pagerank);

  GraphSession reference(testing_util::CompleteK4(0.5));
  std::vector<double> expected_scalars;
  for (std::size_t i = 0; i + 1 < batch.size(); ++i) {
    Result<QueryResult> r = reference.Run(batch[i]);
    ASSERT_TRUE(r.ok());
    expected_scalars.push_back(r->scalar);
  }
  Result<QueryResult> expected_pr = reference.Run(batch.back());
  ASSERT_TRUE(expected_pr.ok());

  for (int threads : {1, 2, 8}) {
    GraphSessionOptions options;
    options.engine.num_threads = threads;
    GraphSession session(testing_util::CompleteK4(0.5), options);
    std::vector<Result<QueryResult>> results = session.RunBatch(batch);
    ASSERT_EQ(results.size(), batch.size());
    for (std::size_t i = 0; i + 1 < batch.size(); ++i) {
      ASSERT_TRUE(results[i].ok());
      EXPECT_EQ(results[i]->scalar, expected_scalars[i])
          << "slot " << i << " at " << threads << " threads";
    }
    ASSERT_TRUE(results.back().ok());
    EXPECT_TRUE(results.back()->samples == expected_pr->samples)
        << threads << " threads";
  }
}

TEST(GraphSessionTest, OverlappedBatchIsBitIdenticalToSequential) {
  // batch_workers > 1 claims requests concurrently; every slot must stay
  // bit-identical to the sequential batch (and so to individual runs).
  std::vector<QueryRequest> batch;
  for (std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    batch.push_back(ConnectivityRequest(seed));
  }
  QueryRequest pagerank;
  pagerank.query = "pagerank";
  pagerank.num_samples = 16;
  pagerank.seed = 66;
  batch.push_back(pagerank);
  QueryRequest bad;
  bad.query = "not-a-query";  // Error slots must stay per-request too.
  batch.insert(batch.begin() + 2, bad);

  GraphSession sequential(testing_util::CompleteK4(0.5));
  std::vector<Result<QueryResult>> expected = sequential.RunBatch(batch);

  for (int workers : {2, 4, 16}) {
    GraphSessionOptions options;
    options.batch_workers = workers;
    GraphSession session(testing_util::CompleteK4(0.5), options);
    std::vector<Result<QueryResult>> results = session.RunBatch(batch);
    ASSERT_EQ(results.size(), expected.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(results[i].ok(), expected[i].ok())
          << "slot " << i << " at " << workers << " workers";
      if (!results[i].ok()) {
        EXPECT_EQ(results[i].status().code(), expected[i].status().code());
        continue;
      }
      EXPECT_TRUE(results[i]->samples == expected[i]->samples)
          << "slot " << i << " at " << workers << " workers";
      EXPECT_EQ(results[i]->scalar, expected[i]->scalar) << "slot " << i;
      EXPECT_EQ(results[i]->means, expected[i]->means) << "slot " << i;
    }
  }
}

TEST(GraphSessionTest, OverlapMatrixIsBitIdenticalAtEveryWidth) {
  // The engine-leg overlap determinism matrix: 1/2/8 executor threads x
  // 1/2/8 request drivers overlapping on ONE session. The executor
  // interleaves the drivers' sample batches across the shared pool; the
  // seed-split contract must keep every result bit-identical to the
  // serial reference no matter the interleaving.
  std::vector<QueryRequest> requests;
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    requests.push_back(ConnectivityRequest(seed));
  }
  QueryRequest reliability;
  reliability.query = "reliability";
  reliability.pairs = {{0, 3}, {1, 2}};
  reliability.num_samples = 48;
  reliability.seed = 6;
  requests.push_back(reliability);
  QueryRequest pagerank;
  pagerank.query = "pagerank";
  pagerank.num_samples = 24;
  pagerank.seed = 7;
  requests.push_back(pagerank);

  GraphSession reference(testing_util::CompleteK4(0.5));
  std::vector<QueryResult> expected;
  for (const QueryRequest& request : requests) {
    Result<QueryResult> r = reference.Run(request);
    ASSERT_TRUE(r.ok()) << request.query;
    expected.push_back(*r);
  }

  for (int threads : {1, 2, 8}) {
    GraphSessionOptions options;
    options.engine.num_threads = threads;
    GraphSession session(testing_util::CompleteK4(0.5), options);
    for (int overlap : {1, 2, 8}) {
      // overlap drivers each run the full request set concurrently; a
      // result slot per (driver, request) keeps writes disjoint.
      std::vector<std::vector<Result<QueryResult>>> got(
          static_cast<std::size_t>(overlap));
      std::vector<std::thread> drivers;
      drivers.reserve(static_cast<std::size_t>(overlap));
      for (int d = 0; d < overlap; ++d) {
        drivers.emplace_back([&, d] {
          std::vector<Result<QueryResult>>& mine =
              got[static_cast<std::size_t>(d)];
          mine.reserve(requests.size());
          for (const QueryRequest& request : requests) {
            mine.push_back(session.Run(request));
          }
        });
      }
      for (std::thread& driver : drivers) driver.join();
      for (int d = 0; d < overlap; ++d) {
        const std::vector<Result<QueryResult>>& mine =
            got[static_cast<std::size_t>(d)];
        ASSERT_EQ(mine.size(), requests.size());
        for (std::size_t r = 0; r < requests.size(); ++r) {
          ASSERT_TRUE(mine[r].ok())
              << requests[r].query << " driver " << d << " at " << threads
              << " threads x " << overlap << " overlap: "
              << mine[r].status().ToString();
          EXPECT_TRUE(mine[r]->samples == expected[r].samples)
              << requests[r].query << " driver " << d << " at " << threads
              << " threads x " << overlap << " overlap";
          EXPECT_EQ(mine[r]->scalar, expected[r].scalar)
              << requests[r].query << " driver " << d;
          EXPECT_EQ(mine[r]->means, expected[r].means)
              << requests[r].query << " driver " << d;
        }
      }
    }
  }
}

TEST(GraphSessionTest, KnnAndMostProbablePathIdenticalAtEngineWidths1_2_8) {
  // Both run on the session's engine pool; sources and pairs are
  // independent Dijkstra runs, so the width never changes a bit.
  const UncertainGraph g = testing_util::PaperFigure2Graph();
  QueryRequest knn;
  knn.query = "knn";
  knn.sources = {0, 1, 2, 3, 2, 0};
  knn.k = 3;
  QueryRequest mpp;
  mpp.query = "most-probable-path";
  mpp.pairs = {{0, 3}, {1, 2}, {3, 0}, {2, 1}, {0, 0}};
  std::vector<std::vector<KnnResult>> first_knn;
  std::vector<MostProbablePath> first_paths;
  for (int width : {1, 2, 8}) {
    GraphSessionOptions options;
    options.engine.num_threads = width;
    GraphSession session(g, options);
    ASSERT_EQ(session.engine().num_threads(), width);
    Result<QueryResult> knn_result = session.Run(knn);
    Result<QueryResult> mpp_result = session.Run(mpp);
    ASSERT_TRUE(knn_result.ok());
    ASSERT_TRUE(mpp_result.ok());
    ASSERT_EQ(knn_result->knn.size(), knn.sources.size());
    ASSERT_EQ(mpp_result->paths.size(), mpp.pairs.size());
    if (width == 1) {
      first_knn = knn_result->knn;
      first_paths = mpp_result->paths;
      continue;
    }
    for (std::size_t i = 0; i < first_knn.size(); ++i) {
      ASSERT_EQ(knn_result->knn[i].size(), first_knn[i].size());
      for (std::size_t j = 0; j < first_knn[i].size(); ++j) {
        EXPECT_EQ(knn_result->knn[i][j].vertex, first_knn[i][j].vertex);
        EXPECT_EQ(knn_result->knn[i][j].path_probability,
                  first_knn[i][j].path_probability)
            << "width " << width;
      }
    }
    for (std::size_t i = 0; i < first_paths.size(); ++i) {
      EXPECT_EQ(mpp_result->paths[i].vertices, first_paths[i].vertices);
      EXPECT_EQ(mpp_result->paths[i].probability, first_paths[i].probability)
          << "width " << width;
    }
  }
}

/// Threads of this process, one /proc/self/task entry each.
std::size_t ProcessThreads() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

TEST(GraphSessionTest, SkipEngineSharesThePlainEnginesPool) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task to count threads in";
  }
  ThreadPool::Default();  // Exists before counting, whoever starts it.
  const UncertainGraph g = testing_util::PathGraph(16, 0.15);
  std::vector<QueryRequest> requests;
  for (const char* query : {"reliability", "connectivity", "pagerank"}) {
    QueryRequest request;
    request.query = query;
    if (request.query == "reliability") request.pairs = {{0, 15}, {2, 5}};
    request.num_samples = 96;
    request.seed = 21;
    request.estimator = Estimator::kSkipSampler;
    requests.push_back(request);
  }
  QueryRequest plain = requests[0];
  plain.estimator = Estimator::kSampled;
  requests.push_back(plain);

  // One pool of num_threads for both engines: num_threads - 1 workers,
  // before and after plain and skip requests ran on it.
  {
    const std::size_t before = ProcessThreads();
    GraphSessionOptions options;
    options.engine.num_threads = 4;
    GraphSession session(g, options);
    EXPECT_EQ(ProcessThreads(), before + 3);
    for (const QueryRequest& request : requests) {
      ASSERT_TRUE(session.Run(request).ok()) << request.query;
    }
    EXPECT_EQ(ProcessThreads(), before + 3);
  }

  std::vector<QueryResult> first;
  for (int width : {1, 2, 8}) {
    GraphSessionOptions options;
    options.engine.num_threads = width;
    GraphSession session(g, options);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      Result<QueryResult> result = session.Run(requests[i]);
      ASSERT_TRUE(result.ok()) << requests[i].query;
      if (width == 1) {
        first.push_back(std::move(result).value());
        continue;
      }
      EXPECT_TRUE(result->samples == first[i].samples)
          << requests[i].query << " width " << width;
      EXPECT_EQ(result->means, first[i].means)
          << requests[i].query << " width " << width;
      EXPECT_EQ(result->scalar, first[i].scalar)
          << requests[i].query << " width " << width;
    }
  }
}

TEST(GraphSessionTest, ConcurrentFirstPlainRequestsShareOneTable) {
  // Two threads issue a fresh session's first plain-sampled request at
  // once, so both reach the lazily built plain-sampler tables together:
  // they are built once (std::call_once; a second, racing build is what
  // the ThreadSanitizer leg would report) and both answers equal the
  // answer of an unbound engine, which builds its own tables per Run.
  const UncertainGraph g = testing_util::PathGraph(3000, 0.999);
  QueryRequest request;
  request.query = "reliability";
  request.pairs = {{0, 2999}, {10, 400}, {7, 7}};
  request.num_samples = 64;
  request.seed = 17;
  request.estimator = Estimator::kSampled;
  Rng rng(request.seed);
  const McSamples expected =
      McReliability(g, request.pairs, request.num_samples, &rng,
                    SampleEngine(SampleEngineOptions{.num_threads = 1}));
  for (int width : {1, 4}) {
    GraphSessionOptions options;
    options.engine.num_threads = width;
    const GraphSession session(g, options);
    std::atomic<int> waiting{2};
    Result<QueryResult> results[2] = {Status::Internal("not run"),
                                      Status::Internal("not run")};
    std::vector<std::thread> threads;
    for (Result<QueryResult>& result : results) {
      threads.emplace_back([&session, &request, &waiting, &result] {
        waiting.fetch_sub(1);
        while (waiting.load() > 0) {
        }
        result = session.Run(request);
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const Result<QueryResult>& result : results) {
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->estimator, Estimator::kSampled);
      EXPECT_TRUE(result->samples == expected) << "width " << width;
    }
    EXPECT_EQ(results[0]->means, results[1]->means) << "width " << width;
  }
}

TEST(GraphSessionTest, IdenticalRequestsAgreeAcrossSessions) {
  GraphSessionOptions wide;
  wide.engine.num_threads = 8;
  GraphSession a(testing_util::PathGraph(12, 0.4));
  GraphSession b(testing_util::PathGraph(12, 0.4), wide);
  QueryRequest request;
  request.query = "shortest-path";
  request.pairs = {{0, 11}, {3, 7}};
  request.num_samples = 48;
  request.seed = 9;
  request.estimator = Estimator::kSampled;
  Result<QueryResult> ra = a.Run(request);
  Result<QueryResult> rb = b.Run(request);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_TRUE(ra->samples == rb->samples);
  EXPECT_EQ(ra->means, rb->means);
}

}  // namespace
}  // namespace ugs
