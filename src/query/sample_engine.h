#ifndef UGS_QUERY_SAMPLE_ENGINE_H_
#define UGS_QUERY_SAMPLE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "graph/uncertain_graph.h"
#include "query/skip_sampler.h"
#include "query/world_sampler.h"
#include "telemetry/metrics.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace ugs {

/// Configuration for a SampleEngine.
struct SampleEngineOptions {
  /// 0 = share the process-wide ThreadPool::Default(); otherwise the
  /// engine owns a private pool of exactly this many threads.
  int num_threads = 0;
  /// Samples dispatched per pool task. Batching amortizes the per-task
  /// scratch construction and the atomic work-stealing claim; it never
  /// affects results.
  int batch_size = 32;
  /// Draw worlds with SkipWorldSampler (geometric skipping, fewer RNG
  /// calls on low-probability graphs) instead of the plain per-edge
  /// sampler. Changes the random stream but not the world distribution.
  /// The sampler's tables are built per Run, or once per engine for the
  /// graph an engine is bound to (see the binding constructor).
  bool use_skip_sampler = false;
  /// Borrowed telemetry counter bumped by num_samples once per Run /
  /// RunMean (worlds drawn; the samples/sec signal). Null = untracked.
  /// The counter must outlive the engine.
  telemetry::Counter* worlds_sampled = nullptr;
};

/// Shared parallel Monte-Carlo possible-world engine. The serving entry
/// point above it is GraphSession (query/graph_session.h), which owns one
/// plain and one skip-sampler engine per loaded graph. Owns the sample
/// loop every sampling-based evaluator used to hand-roll: allocate the
/// McSamples matrix, derive one deterministic RNG per sample by
/// seed-splitting, dispatch batches of worlds to the pool, and let each
/// evaluation write into its sample's disjoint row.
///
/// Determinism guarantee: sample s is generated from an Rng derived as
/// SampleRng(base, s), where `base` is a single Next64() draw from the
/// caller's Rng. World generation and evaluation therefore depend only on
/// (base, s), never on scheduling -- results are bit-identical for any
/// thread count and any batch size, and reproducible from the caller's
/// seed exactly like the old serial loops.
///
/// Run/RunMean are const and safe to call concurrently: each call is its
/// own task group on the pool's executor, so overlapping requests
/// interleave their sample batches without affecting any result.
class SampleEngine {
 public:
  explicit SampleEngine(SampleEngineOptions options = {});

  /// An engine bound to `graph` (which must outlive it): its Runs over
  /// that graph share one set of sampler tables (PlainWorldSampler's, or
  /// SkipWorldSampler's under use_skip_sampler), built on the first such
  /// Run; Runs over any other graph behave as for an unbound engine. With
  /// a `pool_owner` (which must outlive it) it dispatches to that
  /// engine's pool and options.num_threads is ignored, so it owns no
  /// threads of its own. GraphSession binds both its engines to its
  /// graph, the skip engine to the plain engine's pool: a session builds
  /// each table on its first request of that kind, and owns one pool.
  SampleEngine(SampleEngineOptions options, const UncertainGraph& graph,
               const SampleEngine* pool_owner = nullptr);

  /// Evaluates one sampled world: writes the query's per-unit results
  /// into row[0..num_units) and, when the query tracks conditioning,
  /// validity flags into valid[0..num_units) (null when Run was told not
  /// to track validity). The world is task-local scratch and may be
  /// overwritten (stratified pivot conditioning), provided its
  /// present-edge list is re-derived (World::Compact) before it is read.
  using WorldEval =
      std::function<void(World& world, double* row, char* valid)>;

  /// Builds a WorldEval plus whatever scratch it needs (union-find,
  /// distance arrays, ...). Called once per dispatched batch, so scratch
  /// is never shared across threads and its cost is amortized over
  /// batch_size worlds.
  using WorldEvalFactory = std::function<WorldEval()>;

  /// The core sample loop: num_samples worlds of `graph`, evaluated into
  /// an num_samples x num_units matrix. Draws exactly one value from
  /// `rng` (the seed-split base). `track_valid` allocates and zeroes
  /// McSamples::valid; evaluators then mark valid entries.
  McSamples Run(const UncertainGraph& graph, std::size_t num_units,
                int num_samples, Rng* rng, bool track_valid,
                const WorldEvalFactory& factory) const;

  /// Scalar world statistic evaluated per world.
  using WorldStat = std::function<double(World& world)>;
  using WorldStatFactory = std::function<WorldStat()>;

  /// Mean of a scalar statistic over num_samples worlds (summed in sample
  /// order, so the value is thread-count independent).
  double RunMean(const UncertainGraph& graph, int num_samples, Rng* rng,
                 const WorldStatFactory& factory) const;

  /// The pool this engine dispatches to.
  ThreadPool& pool() const;

  int num_threads() const { return pool().num_threads(); }
  const SampleEngineOptions& options() const { return options_; }

  /// Process-wide engine on the default thread pool; what the
  /// Rng*-only query entry points use. Resize via
  /// ThreadPool::SetDefaultThreads (e.g. a bench --threads flag).
  static const SampleEngine& Default();

  /// The deterministic RNG for sample `index` under seed-split base
  /// `base`. Exposed so tests and debuggers can replay a single sample.
  static Rng SampleRng(std::uint64_t base, std::uint64_t index);

 private:
  /// The sampler tables one Run draws its worlds from: the plain or the
  /// skip sampler's, whichever the options ask for.
  struct Tables {
    void Build(const UncertainGraph& graph, bool use_skip);
    void Sample(Rng* rng, World* world) const;

    std::optional<PlainWorldSampler> plain;
    std::optional<SkipWorldSampler> skip;
  };

  /// Tables of the bound graph, built at most once.
  struct BoundTables {
    explicit BoundTables(const UncertainGraph& g) : graph(&g) {}
    const UncertainGraph* graph;
    std::once_flag once;
    Tables tables;
  };

  SampleEngineOptions options_;
  std::unique_ptr<ThreadPool> owned_pool_;  // Only when num_threads > 0.
  const SampleEngine* pool_owner_ = nullptr;  // Borrowed pool, if any.
  std::unique_ptr<BoundTables> bound_;        // Only for bound engines.
};

}  // namespace ugs

#endif  // UGS_QUERY_SAMPLE_ENGINE_H_
