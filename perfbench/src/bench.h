// The pipeline benchmark's workloads, inputs, oracles and layer probes.
//
// Every workload prints the same end-to-end metrics (README.md gives
// their meaning per workload) and, when traced, the same per-layer
// metrics, measured on that workload's own inputs.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "graph/uncertain_graph.h"
#include "oracle.h"
#include "query/query.h"
#include "query/shortest_path.h"
#include "service/client.h"
#include "util.h"
#include "util/status.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;   ///< Holds ugs_serve and ugs_router.
  std::string work_dir;  ///< Scratch for this run (graphs, logs, spans).
};

struct Context {
  Options opt;
  int threads = 4;  ///< Engine threads in-process: min(4, nproc).
  Ledger ledger;
  Tracer tracer{false};
  Metrics metrics;
  /// Info lines printed before the result line (quality, traced e2e).
  std::vector<std::string> notes;
};

// --- Inputs ------------------------------------------------------------------

/// The Twitter stand-in at scale 1, the library's default (seed 43:
/// |V| = 2000, |E| = 49,571, E[p] = 0.158). The graph is fixed so that
/// seeds vary the requests, not the dataset: a different graph per seed
/// widened the run-to-run spread.
ugs::UncertainGraph MakeDataset();

/// `count` distinct ordered pairs (s != t) drawn from `rng`.
std::vector<ugs::VertexPair> MakePairs(InputRng* rng, std::size_t n,
                                       std::size_t count);

std::vector<OracleEdge> ToOracle(const ugs::UncertainGraph& graph);

/// A graph small enough to enumerate (10 vertices, 18 edges) and the
/// pairs the exact oracle is checked on.
struct TinyGraph {
  std::size_t n = 10;
  std::vector<ugs::UncertainEdge> edges;
  std::vector<ugs::VertexPair> pairs;
};
TinyGraph MakeTiny(InputRng* rng);

/// Runs one request somewhere (in-process session, or a daemon).
using RunFn =
    std::function<ugs::Result<ugs::QueryResult>(const ugs::QueryRequest&)>;

/// Exact enumeration against `run`: estimator=exact must match to 1e-12,
/// sampled reliability and conditioned shortest-path must fall within a
/// fixed z-score. Counts each request under op type "oracle".
void CheckTinyOracle(Context* ctx, const TinyGraph& tiny, const RunFn& run,
                     const std::string& where);

/// Per-unit means must equal the row means of the reply's own matrix.
bool MeansMatchMatrix(const ugs::QueryResult& result);

/// A reliability request.
ugs::QueryRequest Reliability(const std::vector<ugs::VertexPair>& pairs,
                              int samples, std::uint64_t seed);

/// Update batches: 1 insert, 1 delete, kUpdateBatch - 2 reweights.
inline constexpr std::size_t kUpdateBatch = 8;

/// A graph as a plain edge list, mutated exactly as the program documents
/// (inserts append, deletes close the gap, reweights are positional). It
/// draws update batches and applies each one to itself.
class EdgeListModel {
 public:
  EdgeListModel(const ugs::UncertainGraph& g, std::uint64_t seed);
  std::vector<ugs::EdgeUpdate> NextBatch();
  ugs::UncertainGraph Build() const;

 private:
  static std::uint64_t Key(std::uint32_t u, std::uint32_t v);
  std::size_t n_;
  std::vector<ugs::UncertainEdge> edges_;
  std::unordered_set<std::uint64_t> keys_;
  InputRng rng_;
};

// --- Reporting -----------------------------------------------------------------

/// One timed operation: when it completed (seconds into the window) and
/// how long it took.
struct Sample {
  double end_s = 0.0;
  double us = 0.0;
};

/// The end-to-end measurements every workload makes.
struct EndToEnd {
  std::vector<double> setup_s;  ///< One entry per set-up.
  double peak_rss_kib = 0.0;
  int loops = 1;                ///< Closed loops driving the primary stream.
  std::vector<Sample> primary;  ///< The primary stream's operations.
  std::vector<Sample> side;     ///< The side stream's operations.
};

/// Reports the end-to-end metrics. The window (ctx->opt.seconds) is cut
/// into ten equal slices; the primary and side medians and the throughput
/// are computed per slice and the median slice is reported, so a host
/// stall of a second or two moves one slice and not the run's figure. Throughput is the
/// closed loops' rate, loops / mean latency: operations per second of
/// time spent in operations, which leaves out the benchmark's own checks.
void ReportEndToEnd(Context* ctx, const EndToEnd& e2e);

// --- Sparsify sweep and query battery ----------------------------------------

/// The sparsification ratios of the sweep.
inline constexpr double kSweepAlphas[] = {0.08, 0.16, 0.32};

/// What the GDB/EMD sweep leaves behind: G' from GDBA at each alpha (first
/// seed), and the sweep's work counts and busy times.
struct SweepResult {
  std::vector<ugs::UncertainGraph> gdb_by_alpha;  ///< Parallel to kSweepAlphas.
  std::uint64_t gdb_sweeps = 0;
  std::uint64_t emd_iterations = 0;
  std::uint64_t emd_swaps = 0;
  double backbone_ms = 0.0;
  double gdb_ms = 0.0;
  double emd_ms = 0.0;
  double degree_mae_gdb16 = 0.0;  ///< G' (GDBA, alpha = 16%) against G.
  std::size_t zero_p_gdb16 = 0;   ///< Its edges with probability 0.
};

/// Sparsifies `g` with GDBA (`gdb_seeds` seeds) and EMDR-t (`emd_seeds`)
/// at every alpha through the layer calls BuildBackbone / RunGdb / RunEmd,
/// checks every output, and checks that the layer-call pipeline equals
/// the Sparsifier facade at alpha = 16%.
SweepResult RunSweep(Context* ctx, const ugs::UncertainGraph& g,
                     int gdb_seeds, int emd_seeds, std::uint64_t seed);

/// Checks one sparsifier output: exactly round(alpha |E|) edges, each an
/// original edge with matching endpoints and p in [0, 1], and a lower
/// expected-degree discrepancy than `backbone` with its original
/// probabilities.
struct SparsifiedCheck {
  double degree_mae = 0.0;  ///< Mean |d_G(u) - d_G'(u)|.
  std::size_t zero_p = 0;   ///< Kept edges whose probability is 0.
};
SparsifiedCheck CheckSparsified(Context* ctx, const ugs::UncertainGraph& g,
                       const std::vector<double>& degrees_g,
                       const ugs::UncertainGraph& gp,
                       const std::vector<ugs::EdgeId>& original_ids,
                       const std::vector<ugs::EdgeId>& backbone, double alpha,
                       const std::string& input);

/// Range and sum properties of a reply: reliability and clustering means
/// in [0, 1], PageRank means summing to 1, distances >= 1 when defined.
void CheckBattery(Context* ctx, const ugs::QueryResult& result,
                  const std::string& input);

// --- Daemons -------------------------------------------------------------------

/// Starts ugs_serve over `dir` on an ephemeral port and waits for its
/// banner. `cache_bytes` = 0 leaves the result cache off. Null on failure.
std::unique_ptr<Daemon> StartServe(const Context& ctx, const std::string& dir,
                                   int workers, std::size_t cache_bytes,
                                   const std::string& name);

/// Connects a client to a local daemon.
ugs::Result<ugs::Client> Connect(int port);

/// Writes `graph` as <dir>/<id>.ugsc.
bool Pack(const ugs::UncertainGraph& graph, const std::string& dir,
          const std::string& id);

/// Two ugs_serve shards over one graph directory behind one ugs_router.
struct Deployment {
  std::vector<std::unique_ptr<Daemon>> shards;
  std::unique_ptr<Daemon> router;
  /// Starts it; false (with the reason on stderr) on failure.
  bool Start(const Context& ctx, const std::string& dir, int shard_workers,
             std::size_t cache_bytes, int router_workers, const std::string& name);
  /// Stops the router, then the shards; true when all exited 0.
  bool Stop();
};

/// The stats verb's JSON from a daemon ("" when unreachable).
std::string StatsOf(int port);
/// The Prometheus exposition from a daemon ("" when unreachable).
std::string MetricsOf(int port);

// --- Layer probes (traced runs) ----------------------------------------------

/// Calls into every layer on `graph` with spans around each call, runs a
/// served probe against a fresh two-shard deployment behind a router, and
/// derives the per-layer metrics. `request` is the workload's own request
/// shape.
void RunLayerProbes(Context* ctx, const ugs::UncertainGraph& graph,
                    const ugs::QueryRequest& request);

// --- Workloads ---------------------------------------------------------------

int RunOfflineSparsify(Context* ctx);
int RunOfflineQuery(Context* ctx);
int RunServeMiss(Context* ctx);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
