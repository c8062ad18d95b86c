#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/csr_format.h"
#include "graph/uncertain_graph.h"
#include "query/graph_session.h"
#include "service/wire.h"
#include "tests/test_util.h"

namespace ugs {
namespace {

/// Unit and property tests of the edge-mutation path: ApplyUpdates
/// semantics and atomicity, and the version-equivalence oracle -- a
/// session mutated through WithUpdates answers every query bit-identical
/// (PayloadEquals) to a session freshly built from the equivalent edge
/// list, at 1, 2, and 8 engine threads (docs/dynamic-graphs.md).

using testing_util::CompleteK4;
using testing_util::PathGraph;

// --- ApplyUpdates semantics. ---

TEST(ApplyUpdatesTest, InsertAddsTheEdgeAndRebuildsAdjacency) {
  UncertainGraph graph = PathGraph(4, 0.5);  // 0-1-2-3.
  const std::vector<EdgeUpdate> batch = {
      {EdgeUpdateOp::kInsert, 3, 0, 0.25}};  // Endpoints unordered.
  ASSERT_TRUE(graph.ApplyUpdates(batch).ok());
  EXPECT_EQ(graph.num_edges(), 4u);
  const EdgeId e = graph.FindEdge(0, 3);
  ASSERT_NE(e, kInvalidEdge);
  EXPECT_EQ(graph.probability(e), 0.25);
  EXPECT_EQ(graph.Degree(0), 2u);
  EXPECT_DOUBLE_EQ(graph.ExpectedDegree(0), 0.75);
}

TEST(ApplyUpdatesTest, DeleteClosesTheEdgeIdGap) {
  UncertainGraph graph = CompleteK4(0.5);
  const UncertainEdge last_before = graph.edge(5);
  ASSERT_TRUE(
      graph.ApplyUpdates({{{EdgeUpdateOp::kDelete, 0, 1, 0.0}}}).ok());
  EXPECT_EQ(graph.num_edges(), 5u);
  EXPECT_EQ(graph.FindEdge(0, 1), kInvalidEdge);
  // Later edges shifted down one id; the old last edge is now id 4.
  const UncertainEdge& shifted = graph.edge(4);
  EXPECT_EQ(shifted.u, last_before.u);
  EXPECT_EQ(shifted.v, last_before.v);
}

TEST(ApplyUpdatesTest, ReweightIsPositional) {
  UncertainGraph graph = CompleteK4(0.5);
  ASSERT_TRUE(
      graph.ApplyUpdates({{{EdgeUpdateOp::kReweight, 2, 1, 0.875}}}).ok());
  EXPECT_EQ(graph.num_edges(), 6u);
  EXPECT_EQ(graph.probability(graph.FindEdge(1, 2)), 0.875);
}

TEST(ApplyUpdatesTest, BatchSeesItsOwnEarlierUpdates) {
  UncertainGraph graph = PathGraph(4, 0.5);
  // Insert then reweight the same edge in one batch: the reweight must
  // see the insert (updates apply in order).
  ASSERT_TRUE(graph
                  .ApplyUpdates({{{EdgeUpdateOp::kInsert, 0, 3, 0.5},
                                  {EdgeUpdateOp::kReweight, 0, 3, 0.125}}})
                  .ok());
  EXPECT_EQ(graph.probability(graph.FindEdge(0, 3)), 0.125);
}

TEST(ApplyUpdatesTest, MutatedGraphMatchesFromEdgesExactly) {
  // The commit path rebuilds from the staged edge list, so the mutated
  // graph's arrays must equal FromEdges on the equivalent list.
  UncertainGraph mutated = CompleteK4(0.5);
  ASSERT_TRUE(mutated
                  .ApplyUpdates({{{EdgeUpdateOp::kDelete, 1, 2, 0.0},
                                  {EdgeUpdateOp::kReweight, 0, 3, 0.9},
                                  {EdgeUpdateOp::kInsert, 1, 2, 0.1}}})
                  .ok());
  std::vector<UncertainEdge> expected_edges = {
      {0, 1, 0.5}, {0, 2, 0.5}, {0, 3, 0.9},
      {1, 3, 0.5}, {2, 3, 0.5}, {1, 2, 0.1}};
  UncertainGraph expected = UncertainGraph::FromEdges(4, expected_edges);
  ASSERT_EQ(mutated.num_edges(), expected.num_edges());
  for (EdgeId e = 0; e < mutated.num_edges(); ++e) {
    EXPECT_EQ(mutated.edge(e).u, expected.edge(e).u) << "edge " << e;
    EXPECT_EQ(mutated.edge(e).v, expected.edge(e).v) << "edge " << e;
    EXPECT_EQ(mutated.edge(e).p, expected.edge(e).p) << "edge " << e;
  }
  for (VertexId u = 0; u < mutated.num_vertices(); ++u) {
    EXPECT_EQ(mutated.Degree(u), expected.Degree(u)) << "vertex " << u;
    EXPECT_EQ(mutated.ExpectedDegree(u), expected.ExpectedDegree(u));
  }
}

// --- Atomicity and typed failures. ---

TEST(ApplyUpdatesTest, EveryInvalidUpdateFailsTypedAndAtomically) {
  const UncertainGraph pristine = CompleteK4(0.5);
  const struct {
    const char* label;
    EdgeUpdate bad;
  } cases[] = {
      {"duplicate insert", {EdgeUpdateOp::kInsert, 0, 1, 0.5}},
      {"self loop", {EdgeUpdateOp::kInsert, 2, 2, 0.5}},
      {"endpoint out of range", {EdgeUpdateOp::kInsert, 0, 4, 0.5}},
      {"p zero", {EdgeUpdateOp::kInsert, 0, 1, 0.0}},
      {"p over one", {EdgeUpdateOp::kInsert, 0, 1, 1.5}},
      {"delete missing", {EdgeUpdateOp::kDelete, 0, 0, 0.0}},
      {"reweight missing edge", {EdgeUpdateOp::kReweight, 9, 1, 0.5}},
      {"reweight bad p", {EdgeUpdateOp::kReweight, 0, 1, -0.5}},
  };
  for (const auto& test_case : cases) {
    UncertainGraph graph = pristine;
    // A valid leading update must not survive the failing one.
    const std::vector<EdgeUpdate> batch = {
        {EdgeUpdateOp::kReweight, 0, 1, 0.75}, test_case.bad};
    Status failed = graph.ApplyUpdates(batch);
    ASSERT_FALSE(failed.ok()) << test_case.label;
    EXPECT_EQ(failed.code(), StatusCode::kInvalidArgument) << test_case.label;
    EXPECT_NE(failed.message().find("update[1]"), std::string::npos)
        << test_case.label << ": " << failed.message();
    EXPECT_EQ(graph.probability(graph.FindEdge(0, 1)), 0.5)
        << test_case.label << ": failed batch mutated the graph";
    EXPECT_EQ(graph.num_edges(), pristine.num_edges()) << test_case.label;
  }
}

TEST(ApplyUpdatesTest, MutatingAMappedViewMaterializesIt) {
  const std::string path = ::testing::TempDir() + "/update_view.ugsc";
  ASSERT_TRUE(WriteCsrGraph(CompleteK4(0.5), path).ok());
  Result<MappedGraph> mapped = MappedGraph::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  UncertainGraph graph = std::move(*mapped).TakeGraph();
  ASSERT_TRUE(graph.is_view());
  ASSERT_TRUE(
      graph.ApplyUpdates({{{EdgeUpdateOp::kReweight, 0, 1, 0.25}}}).ok());
  EXPECT_FALSE(graph.is_view());  // Copy-on-mutate: owned storage now.
  EXPECT_EQ(graph.probability(graph.FindEdge(0, 1)), 0.25);
}

// --- The version-equivalence oracle. ---

/// A covering query battery, all valid on graphs with >= 4 vertices.
std::vector<QueryRequest> OracleRequests() {
  std::vector<QueryRequest> requests;
  QueryRequest reliability;
  reliability.query = "reliability";
  reliability.pairs = {{0, 3}};
  reliability.num_samples = 32;
  reliability.seed = 3;
  requests.push_back(reliability);

  QueryRequest skip = reliability;
  skip.estimator = Estimator::kSkipSampler;
  skip.seed = 4;
  requests.push_back(skip);

  QueryRequest sp;
  sp.query = "shortest-path";
  sp.pairs = {{0, 2}, {1, 3}};
  sp.num_samples = 32;
  sp.seed = 6;
  requests.push_back(sp);

  QueryRequest pagerank;
  pagerank.query = "pagerank";
  pagerank.num_samples = 16;
  pagerank.seed = 7;
  requests.push_back(pagerank);

  QueryRequest knn;
  knn.query = "knn";
  knn.sources = {0, 2};
  knn.k = 3;
  requests.push_back(knn);

  QueryRequest mpp;
  mpp.query = "most-probable-path";
  mpp.pairs = {{0, 3}};
  requests.push_back(mpp);
  return requests;
}

/// Applies one update to the model edge list the same way ApplyUpdates
/// documents: insert appends, delete closes the gap, reweight is
/// positional.
void ApplyToModel(const EdgeUpdate& update,
                  std::vector<UncertainEdge>* edges) {
  const auto same_edge = [&update](const UncertainEdge& e) {
    return (e.u == update.u && e.v == update.v) ||
           (e.u == update.v && e.v == update.u);
  };
  switch (update.op) {
    case EdgeUpdateOp::kInsert:
      edges->push_back({update.u, update.v, update.p});
      return;
    case EdgeUpdateOp::kDelete:
      for (std::size_t i = 0; i < edges->size(); ++i) {
        if (same_edge((*edges)[i])) {
          edges->erase(edges->begin() + static_cast<std::ptrdiff_t>(i));
          return;
        }
      }
      FAIL() << "model delete missed";
    case EdgeUpdateOp::kReweight:
      for (UncertainEdge& e : *edges) {
        if (same_edge(e)) {
          e.p = update.p;
          return;
        }
      }
      FAIL() << "model reweight missed";
  }
}

/// Every CSR array of `graph` equals the one FromEdges builds from
/// `edges`: the version-equivalence contract, array by array.
void ExpectMatchesFromEdges(const UncertainGraph& graph,
                            const std::vector<UncertainEdge>& edges) {
  const UncertainGraph expected =
      UncertainGraph::FromEdges(graph.num_vertices(), edges);
  const CsrArrays got = graph.csr_arrays();
  const CsrArrays want = expected.csr_arrays();
  ASSERT_EQ(got.edges.size(), want.edges.size());
  for (std::size_t e = 0; e < want.edges.size(); ++e) {
    EXPECT_EQ(got.edges[e].u, want.edges[e].u) << "edge " << e;
    EXPECT_EQ(got.edges[e].v, want.edges[e].v) << "edge " << e;
    EXPECT_EQ(got.edges[e].p, want.edges[e].p) << "edge " << e;
  }
  ASSERT_EQ(got.degree_offsets.size(), want.degree_offsets.size());
  for (std::size_t i = 0; i < want.degree_offsets.size(); ++i) {
    EXPECT_EQ(got.degree_offsets[i], want.degree_offsets[i]) << "offset " << i;
  }
  ASSERT_EQ(got.adjacency.size(), want.adjacency.size());
  for (std::size_t i = 0; i < want.adjacency.size(); ++i) {
    EXPECT_EQ(got.adjacency[i].neighbor, want.adjacency[i].neighbor)
        << "adjacency " << i;
    EXPECT_EQ(got.adjacency[i].edge, want.adjacency[i].edge)
        << "adjacency " << i;
  }
  ASSERT_EQ(got.expected_degrees.size(), want.expected_degrees.size());
  for (std::size_t u = 0; u < want.expected_degrees.size(); ++u) {
    EXPECT_EQ(got.expected_degrees[u], want.expected_degrees[u])
        << "vertex " << u;
  }
}

TEST(ApplyUpdatesTest, DeletedAndReinsertedEdgesMatchReplayedList) {
  // Deletes inside a batch only mark their entry; these sequences make
  // later updates of the same batch find, miss or re-add marked edges.
  UncertainGraph graph = CompleteK4(0.5);
  std::vector<UncertainEdge> model(graph.edges().begin(),
                                   graph.edges().end());
  const std::vector<EdgeUpdate> batch = {
      {EdgeUpdateOp::kInsert, 0, 4, 0.3},    // Vertex 4 was isolated.
      {EdgeUpdateOp::kDelete, 4, 0, 0.0},    // Delete the just-inserted.
      {EdgeUpdateOp::kDelete, 1, 2, 0.0},    // Delete an original edge...
      {EdgeUpdateOp::kInsert, 2, 1, 0.7},    // ...and reinsert it.
      {EdgeUpdateOp::kReweight, 1, 2, 0.6},  // Reweight the reinserted.
      {EdgeUpdateOp::kDelete, 0, 1, 0.0},    // First edge: later ids move.
      {EdgeUpdateOp::kInsert, 0, 4, 0.9},    // Reinsert the deleted insert.
      {EdgeUpdateOp::kReweight, 3, 2, 0.2},  // An untouched original.
      {EdgeUpdateOp::kDelete, 2, 1, 0.0},    // Delete the reinserted...
      {EdgeUpdateOp::kInsert, 1, 2, 0.4},    // ...and insert it again.
  };
  UncertainGraph five = UncertainGraph::FromEdges(5, model);
  for (const EdgeUpdate& update : batch) ApplyToModel(update, &model);
  ASSERT_TRUE(five.ApplyUpdates(batch).ok());
  ExpectMatchesFromEdges(five, model);
  EXPECT_EQ(five.num_edges(), 6u);
  EXPECT_EQ(five.FindEdge(0, 1), kInvalidEdge);
  EXPECT_EQ(five.probability(five.FindEdge(1, 2)), 0.4);
  EXPECT_EQ(five.probability(five.FindEdge(0, 4)), 0.9);

  // Within the batch, a deleted edge is gone (reweight and delete fail)
  // and a deleted-then-reinserted one is present (insert fails).
  EXPECT_FALSE(graph
                   .ApplyUpdates({{{EdgeUpdateOp::kDelete, 0, 1, 0.0},
                                   {EdgeUpdateOp::kReweight, 1, 0, 0.5}}})
                   .ok());
  EXPECT_FALSE(graph
                   .ApplyUpdates({{{EdgeUpdateOp::kDelete, 0, 1, 0.0},
                                   {EdgeUpdateOp::kDelete, 0, 1, 0.0}}})
                   .ok());
  EXPECT_FALSE(graph
                   .ApplyUpdates({{{EdgeUpdateOp::kDelete, 0, 1, 0.0},
                                   {EdgeUpdateOp::kInsert, 0, 1, 0.5},
                                   {EdgeUpdateOp::kInsert, 1, 0, 0.5}}})
                   .ok());
  const UncertainGraph pristine = CompleteK4(0.5);
  ExpectMatchesFromEdges(graph,
                         std::vector<UncertainEdge>(pristine.edges().begin(),
                                                    pristine.edges().end()));
}

TEST(ApplyUpdatesTest, RandomMixedBatchesMatchReplayedList) {
  // Long mixed batches on a denser graph: each update is drawn against
  // the batch's own running state, so batches keep deleting edges they
  // inserted, reinserting edges they deleted and reweighting both.
  constexpr std::size_t kVertices = 12;
  std::mt19937_64 rng(20261019);
  std::vector<UncertainEdge> model;
  for (VertexId u = 0; u < kVertices; ++u) {
    for (VertexId v = u + 1; v < kVertices; ++v) {
      if (rng() % 2 == 0) model.push_back({u, v, 0.5});
    }
  }
  UncertainGraph graph = UncertainGraph::FromEdges(kVertices, model);
  const auto random_p = [&rng] {
    return std::uniform_real_distribution<double>(0.05, 1.0)(rng);
  };
  for (int batch_index = 0; batch_index < 40; ++batch_index) {
    std::vector<EdgeUpdate> batch;
    const std::size_t batch_size = 1 + rng() % 24;
    while (batch.size() < batch_size) {
      EdgeUpdate update;
      update.u = static_cast<VertexId>(rng() % kVertices);
      update.v = static_cast<VertexId>(rng() % kVertices);
      if (update.u == update.v) continue;
      bool exists = false;
      for (const UncertainEdge& e : model) {
        exists |= (e.u == update.u && e.v == update.v) ||
                  (e.u == update.v && e.v == update.u);
      }
      if (!exists) {
        update.op = EdgeUpdateOp::kInsert;
        update.p = random_p();
      } else if (rng() % 2 == 0) {
        update.op = EdgeUpdateOp::kDelete;
      } else {
        update.op = EdgeUpdateOp::kReweight;
        update.p = random_p();
      }
      batch.push_back(update);
      ApplyToModel(update, &model);
    }
    ASSERT_TRUE(graph.ApplyUpdates(batch).ok()) << "batch " << batch_index;
    ExpectMatchesFromEdges(graph, model);
  }
}

TEST(VersionEquivalenceTest, RandomMutationSequenceMatchesFreshLoad) {
  // The property: after ANY sequence of update batches, every query on
  // the chained WithUpdates session is bit-identical to the same query
  // on a session freshly constructed from the equivalent edge list --
  // at 1, 2, and 8 engine threads (results are pure functions of
  // (graph, request), so thread count must not matter either).
  constexpr std::size_t kVertices = 10;
  constexpr int kBatches = 8;
  std::vector<UncertainEdge> model;
  for (VertexId i = 0; i + 1 < kVertices; ++i) {
    model.push_back({i, static_cast<VertexId>(i + 1), 0.4});
  }
  GraphSessionOptions base;
  auto session = std::make_unique<GraphSession>(
      UncertainGraph::FromEdges(kVertices, model), base);

  std::mt19937_64 rng(20260807);
  const auto random_p = [&rng] {
    return std::uniform_real_distribution<double>(0.05, 1.0)(rng);
  };
  for (int batch_index = 0; batch_index < kBatches; ++batch_index) {
    // Draw a batch of 1-3 random valid mutations against the model.
    std::vector<EdgeUpdate> batch;
    const std::size_t batch_size = 1 + rng() % 3;
    std::vector<UncertainEdge> staged = model;
    while (batch.size() < batch_size) {
      EdgeUpdate update;
      const int kind = static_cast<int>(rng() % 3);
      if (kind == 0) {
        // Insert a random absent edge.
        update.op = EdgeUpdateOp::kInsert;
        update.u = static_cast<VertexId>(rng() % kVertices);
        update.v = static_cast<VertexId>(rng() % kVertices);
        update.p = random_p();
        if (update.u == update.v) continue;
        bool exists = false;
        for (const UncertainEdge& e : staged) {
          if ((e.u == update.u && e.v == update.v) ||
              (e.u == update.v && e.v == update.u)) {
            exists = true;
          }
        }
        if (exists) continue;
      } else if (staged.empty()) {
        continue;
      } else {
        const UncertainEdge& victim = staged[rng() % staged.size()];
        update.op =
            kind == 1 ? EdgeUpdateOp::kDelete : EdgeUpdateOp::kReweight;
        update.u = victim.u;
        update.v = victim.v;
        update.p = kind == 1 ? 0.0 : random_p();
        if (kind == 1 && staged.size() <= 2) continue;  // Keep some edges.
      }
      batch.push_back(update);
      ApplyToModel(update, &staged);
    }
    model = std::move(staged);

    Result<std::unique_ptr<GraphSession>> next =
        session->WithUpdates(batch, session->version() + 1);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    session = std::move(*next);
    ASSERT_EQ(session->version(),
              static_cast<std::uint64_t>(batch_index) + 2);

    for (int threads : {1, 2, 8}) {
      GraphSessionOptions options = base;
      options.engine.num_threads = threads;
      GraphSession fresh(UncertainGraph::FromEdges(kVertices, model),
                         options);
      for (const QueryRequest& request : OracleRequests()) {
        Result<QueryResult> mutated = session->Run(request);
        Result<QueryResult> oracle = fresh.Run(request);
        ASSERT_TRUE(mutated.ok()) << mutated.status().ToString();
        ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
        // PayloadEquals exempts the graph-version stamp by design: the
        // oracle session is version 1, the mutated chain is not, and
        // the payloads must still be bit-identical.
        EXPECT_TRUE(PayloadEquals(*mutated, *oracle))
            << "batch " << batch_index << " threads " << threads
            << " query " << request.query;
        EXPECT_EQ(mutated->graph_version, session->version());
        EXPECT_EQ(oracle->graph_version, 1u);
      }
    }
  }
}

TEST(VersionEquivalenceTest, MappedGraphSessionSurvivesUpdates) {
  // The registry's reopen-and-replay path mutates sessions opened from
  // .ugsc views; WithUpdates on a view session must behave exactly like
  // the heap-backed path.
  const std::string path = ::testing::TempDir() + "/update_session.ugsc";
  ASSERT_TRUE(WriteCsrGraph(CompleteK4(0.5), path).ok());
  Result<std::unique_ptr<GraphSession>> opened = GraphSession::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_TRUE((*opened)->graph().is_view());

  const std::vector<EdgeUpdate> batch = {
      {EdgeUpdateOp::kReweight, 0, 1, 0.9},
      {EdgeUpdateOp::kDelete, 2, 3, 0.0}};
  Result<std::unique_ptr<GraphSession>> mutated =
      (*opened)->WithUpdates(batch, 2);
  ASSERT_TRUE(mutated.ok()) << mutated.status().ToString();
  EXPECT_FALSE((*mutated)->graph().is_view());
  EXPECT_TRUE((*opened)->graph().is_view());  // Predecessor untouched.
  EXPECT_EQ((*mutated)->version(), 2u);

  std::vector<UncertainEdge> expected = {{0, 1, 0.9}, {0, 2, 0.5},
                                         {0, 3, 0.5}, {1, 2, 0.5},
                                         {1, 3, 0.5}};
  GraphSession oracle(UncertainGraph::FromEdges(4, expected));
  for (const QueryRequest& request : OracleRequests()) {
    Result<QueryResult> a = (*mutated)->Run(request);
    Result<QueryResult> b = oracle.Run(request);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_TRUE(PayloadEquals(*a, *b)) << request.query;
  }
}

}  // namespace
}  // namespace ugs
