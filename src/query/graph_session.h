#ifndef UGS_QUERY_GRAPH_SESSION_H_
#define UGS_QUERY_GRAPH_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/graph_stats.h"
#include "graph/uncertain_graph.h"
#include "query/estimator_policy.h"
#include "query/query.h"
#include "query/sample_engine.h"
#include "util/status.h"

namespace ugs {

/// Configuration of a GraphSession.
struct GraphSessionOptions {
  /// Engine configuration shared by the session's plain and skip-sampler
  /// engines. num_threads = 0 shares the process-wide default pool;
  /// otherwise the session owns one pool of num_threads threads, which
  /// both engines dispatch to.
  SampleEngineOptions engine;
  /// Estimator auto-selection tunables.
  EstimatorPolicyOptions policy;
  /// Requests RunBatch keeps in flight concurrently (request-level
  /// overlap). <= 1 runs the batch sequentially. In-flight requests run
  /// as a task group on the session's engine executor, and each one's
  /// sampling loop is a nested group on the same executor -- overlapping
  /// requests interleave their sample batches across the pool instead of
  /// serializing behind one loop. The overlap therefore rides on the
  /// engine executor's width: a 1-thread engine pool is the serial path
  /// by contract, so it runs the batch sequentially regardless of this
  /// knob (RunBatch never spawns threads of its own). Results are
  /// bit-identical to the sequential path at any value.
  int batch_workers = 1;
  /// Version of the graph this session serves. Freshly loaded graphs
  /// are version 1; WithUpdates builds each successor session with the
  /// bumped version. Stamped into every result (QueryResult
  /// .graph_version) so callers can tell which snapshot answered.
  std::uint64_t graph_version = 1;
};

/// The serving facade of the query layer: owns one loaded UncertainGraph
/// together with the per-graph state every request needs (cached stats,
/// a plain and a skip-sampler SampleEngine, each sampler's tables once
/// a request needs them), and executes QueryRequests
/// through the query registry under the estimator-selection policy.
///
///   auto session = ugs::GraphSession::Open("graph.txt");
///   ugs::QueryRequest request{.query = "reliability"};
///   request.pairs = {{0, 5}};
///   auto result = (*session)->Run(request);
///
/// Determinism: a request's result is a pure function of (graph,
/// request) -- the request's seed feeds the engine's seed-split contract,
/// so results are bit-identical at any thread count and identical to
/// calling the legacy free-function entry point with Rng(request.seed).
/// Batches inherit this per request: order and concurrency never change
/// any result.
class GraphSession {
 public:
  explicit GraphSession(UncertainGraph graph, GraphSessionOptions options = {});

  // Both engines are bound to graph_'s address.
  GraphSession(const GraphSession&) = delete;
  GraphSession& operator=(const GraphSession&) = delete;

  /// Loads a graph file into a fresh session. Paths ending in ".ugsc"
  /// (graph/csr_format.h) are mmap'ed -- open is header validation plus a
  /// checksum pass, and the session's graph is a zero-copy view over the
  /// mapping; everything else is parsed as a text edge list.
  [[nodiscard]] static Result<std::unique_ptr<GraphSession>> Open(
      const std::string& path, GraphSessionOptions options = {});

  const UncertainGraph& graph() const { return graph_; }

  /// Graph statistics, computed once at session construction.
  const GraphStats& stats() const { return stats_; }

  /// The session's plain sampling engine, bound to this session's graph
  /// (skip-sampler requests are routed to a twin engine with
  /// use_skip_sampler set, bound to the same graph and dispatching to
  /// this engine's pool: each sampler's tables are built on the first
  /// request of its kind and shared by every later one, and the session
  /// owns one pool, not two).
  const SampleEngine& engine() const { return engine_; }

  const GraphSessionOptions& options() const { return options_; }

  /// Version of the graph this session serves (stamped into results).
  std::uint64_t version() const { return options_.graph_version; }

  /// Builds the successor session: a copy of this session's graph with
  /// `updates` applied (atomically -- see UncertainGraph::ApplyUpdates)
  /// and the version set to `new_version`. This session is untouched
  /// either way; sessions stay immutable, updates swap whole sessions
  /// (the registry's copy-on-mutate path). A view-backed graph (mmap)
  /// materializes into owned storage here -- first write, not first
  /// read.
  [[nodiscard]] Result<std::unique_ptr<GraphSession>> WithUpdates(
      std::span<const EdgeUpdate> updates, std::uint64_t new_version) const;

  /// Executes one request: registry lookup, validation, estimator
  /// selection, then the query itself. The result records the estimator
  /// that ran and the wall time spent.
  [[nodiscard]] Result<QueryResult> Run(const QueryRequest& request) const;

  /// Executes a batch of heterogeneous requests; result i answers
  /// request i. Failures are per-request: a malformed request yields an
  /// error slot without affecting the rest. With batch_workers > 1 up to
  /// that many requests run concurrently (each slot is written by exactly
  /// one worker, and every result is a pure function of (graph, request),
  /// so order and concurrency never change any result).
  std::vector<Result<QueryResult>> RunBatch(
      const std::vector<QueryRequest>& requests) const;

 private:
  UncertainGraph graph_;
  GraphSessionOptions options_;
  GraphStats stats_;
  SampleEngine engine_;
  SampleEngine skip_engine_;  // Dispatches to engine_'s pool.
};

}  // namespace ugs

#endif  // UGS_QUERY_GRAPH_SESSION_H_
