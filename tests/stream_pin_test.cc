// Stream pin: every sampled answer of the query layer is a pure function
// of (graph, request), and this test fixes that function. The hashes
// below are FNV-1a digests of each result's full McSamples matrix
// (values and validity), its per-unit means and its scalar, taken on a
// small fixed-seed stand-in. A change to world generation or to any
// per-world kernel that alters a single bit of any answer fails here --
// which is the contract under which the samplers and kernels may be
// rewritten for speed.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/datasets.h"
#include "query/graph_session.h"

namespace ugs {
namespace {

/// Twitter-regime stand-in (E[p] ~ 0.15, so the skip sampler's low
/// buckets all fill), with every 37th edge forced certain and every 53rd
/// forced impossible, so the p = 1 and p = 0 paths of both samplers are
/// on the pinned stream too.
const UncertainGraph& PinGraph() {
  static const UncertainGraph* graph = [] {
    UncertainGraph base = MakeTwitterLike(0.1, 43);
    std::vector<UncertainEdge> edges(base.edges().begin(),
                                     base.edges().end());
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (i % 37 == 0) edges[i].p = 1.0;
      if (i % 53 == 0) edges[i].p = 0.0;
    }
    return new UncertainGraph(
        UncertainGraph::FromEdges(base.num_vertices(), std::move(edges)));
  }();
  return *graph;
}

class Fnv1a {
 public:
  void Bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void Vector(const std::vector<T>& v) {
    const std::uint64_t size = v.size();
    Bytes(&size, sizeof(size));
    Bytes(v.data(), v.size() * sizeof(T));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t HashResult(const QueryResult& result) {
  Fnv1a h;
  const std::uint64_t shape[2] = {result.samples.num_units,
                                  result.samples.num_samples};
  h.Bytes(shape, sizeof(shape));
  h.Vector(result.samples.values);
  h.Vector(result.samples.valid);
  h.Vector(result.means);
  const char has_scalar = result.has_scalar ? 1 : 0;
  h.Bytes(&has_scalar, 1);
  h.Bytes(&result.scalar, sizeof(result.scalar));
  return h.value();
}

QueryRequest PinRequest(const UncertainGraph& graph, const char* query,
                        Estimator estimator) {
  QueryRequest request;
  request.query = query;
  request.estimator = estimator;
  request.num_samples = 96;
  request.seed = 20190408;
  request.num_pivot_edges = 4;
  const VertexId n = static_cast<VertexId>(graph.num_vertices());
  for (VertexId i = 0; i < 6; ++i) {
    request.pairs.push_back({(i * 37) % n, (i * 101 + 17) % n});
  }
  return request;
}

/// Runs the pinned request on sessions with 1 and 3 engine threads (odd
/// batch size, so batches straddle threads) and checks its digest.
void ExpectPinned(const UncertainGraph& graph, const char* query,
                  Estimator estimator, std::uint64_t hash) {
  for (int threads : {1, 3}) {
    GraphSessionOptions options;
    options.engine.num_threads = threads;
    options.engine.batch_size = 7;
    GraphSession session(graph, options);
    Result<QueryResult> result =
        session.Run(PinRequest(graph, query, estimator));
    ASSERT_TRUE(result.ok()) << query << ": " << result.status().ToString();
    ASSERT_EQ(result->estimator, estimator);
    EXPECT_EQ(HashResult(*result), hash)
        << query << " / " << EstimatorName(estimator) << " at " << threads
        << " threads: got 0x" << std::hex << HashResult(*result);
  }
}

TEST(StreamPinTest, SampledSkipAndStratifiedAnswersArePinned) {
  using enum Estimator;
  const UncertainGraph& g = PinGraph();
  ExpectPinned(g, "reliability", kSampled, 0x3d04b83be7f508fc);
  ExpectPinned(g, "reliability", kSkipSampler, 0x4cc8b30d63aceb6d);
  ExpectPinned(g, "reliability", kStratified, 0xac0ec5e5629746ea);
  ExpectPinned(g, "connectivity", kSampled, 0x21c87ab2d3b000e7);
  ExpectPinned(g, "connectivity", kSkipSampler, 0x33455bc1719fc6dc);
  ExpectPinned(g, "connectivity", kStratified, 0x8424ede8028fae00);
  ExpectPinned(g, "shortest-path", kSampled, 0x3dde83351cbd7483);
  ExpectPinned(g, "shortest-path", kSkipSampler, 0x7934b0ea46e33afb);
  ExpectPinned(g, "shortest-path", kStratified, 0x4749d611ae845d31);
  ExpectPinned(g, "pagerank", kSampled, 0x125e50fb1cb1d4e9);
  ExpectPinned(g, "pagerank", kSkipSampler, 0x94511b8967c389d5);
  ExpectPinned(g, "clustering", kSampled, 0x22c7c4c128ce992d);
  ExpectPinned(g, "clustering", kSkipSampler, 0xbe6bbfaa177ce265);
}

TEST(StreamPinTest, ExactAnswersArePinned) {
  // 10 edges (one certain, one impossible): small enough to enumerate,
  // dense enough for paths of several hops.
  const UncertainGraph g = UncertainGraph::FromEdges(
      6, {{0, 1, 0.4}, {1, 2, 0.5}, {2, 3, 0.6}, {3, 4, 0.7}, {4, 5, 0.3},
          {5, 0, 0.2}, {0, 3, 0.35}, {1, 4, 0.45}, {2, 5, 1.0}, {0, 2, 0.0}});
  ExpectPinned(g, "reliability", Estimator::kExact, 0x44c3033883dd412d);
  ExpectPinned(g, "connectivity", Estimator::kExact, 0x3361b67aa3c0d8bb);
  ExpectPinned(g, "shortest-path", Estimator::kExact, 0x5133f2c4ac960149);
}

}  // namespace
}  // namespace ugs
