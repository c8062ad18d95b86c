#include "query/stratified.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ugs {

std::vector<EdgeId> HighestEntropyEdges(const UncertainGraph& graph, int r) {
  std::vector<EdgeId> ids(graph.num_edges());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) ids[e] = e;
  std::size_t keep = std::min<std::size_t>(static_cast<std::size_t>(r),
                                           ids.size());
  std::partial_sort(ids.begin(), ids.begin() + keep, ids.end(),
                    [&](EdgeId a, EdgeId b) {
                      return EdgeEntropyBits(graph.edge(a).p) >
                             EdgeEntropyBits(graph.edge(b).p);
                    });
  ids.resize(keep);
  return ids;
}

namespace {

/// Engine for the single-query overloads: the one WorldQuery instance may
/// hold mutable scratch, so it must never be called from two threads.
const SampleEngine& SerialEngine() {
  static const SampleEngine* engine =
      new SampleEngine(SampleEngineOptions{.num_threads = 1});
  return *engine;
}

}  // namespace

double MonteCarloEstimate(const UncertainGraph& graph,
                          const WorldQueryFactory& factory,
                          int total_samples, Rng* rng,
                          const SampleEngine& engine) {
  UGS_CHECK(total_samples > 0);
  return engine.RunMean(graph, total_samples, rng,
                        [&factory]() -> SampleEngine::WorldStat {
                          WorldQuery query = factory();
                          return [query = std::move(query)](World& world) {
                            return query(world);
                          };
                        });
}

double MonteCarloEstimate(const UncertainGraph& graph,
                          const WorldQuery& query, int total_samples,
                          Rng* rng) {
  return MonteCarloEstimate(
      graph, [&query]() { return query; }, total_samples, rng,
      SerialEngine());
}

double StratifiedEstimate(const UncertainGraph& graph,
                          const WorldQueryFactory& factory,
                          const StratifiedOptions& options, Rng* rng,
                          const SampleEngine& engine) {
  UGS_CHECK(options.total_samples > 0);
  const std::size_t m = graph.num_edges();
  if (m == 0) return factory()(World());
  std::vector<EdgeId> pivots =
      HighestEntropyEdges(graph, options.num_pivot_edges);
  const std::size_t r = pivots.size();
  UGS_CHECK(r < 63);
  const std::uint64_t strata = 1ULL << r;

  double estimate = 0.0;
  double allocated_probability = 0.0;
  for (std::uint64_t stratum = 0; stratum < strata; ++stratum) {
    // Exact probability of this pivot assignment.
    double stratum_probability = 1.0;
    for (std::size_t i = 0; i < r; ++i) {
      double p = graph.edge(pivots[i]).p;
      stratum_probability *= ((stratum >> i) & 1ULL) ? p : (1.0 - p);
    }
    if (stratum_probability <= 0.0) continue;
    allocated_probability += stratum_probability;
    // Proportional allocation, at least one sample per visited stratum.
    int samples = std::max(
        1, static_cast<int>(std::llround(stratum_probability *
                                         options.total_samples)));
    // Condition the sampled world on this stratum's pivot assignment,
    // re-derive its present-edge list, then evaluate; the engine hands
    // each batch its own query instance.
    double mean = engine.RunMean(
        graph, samples, rng,
        [&factory, &pivots, stratum, r]() -> SampleEngine::WorldStat {
          WorldQuery query = factory();
          return [query = std::move(query), &pivots, stratum, r](World& world) {
            for (std::size_t i = 0; i < r; ++i) {
              world.Set(pivots[i], (stratum >> i) & 1ULL);
            }
            world.Compact();
            return query(world);
          };
        });
    estimate += stratum_probability * mean;
  }
  // Strata with zero probability carry no mass; renormalization guards
  // against the (p = 0 / p = 1 pivot) corner where some strata are
  // impossible.
  UGS_CHECK(allocated_probability > 0.0);
  return estimate / allocated_probability;
}

double StratifiedEstimate(const UncertainGraph& graph,
                          const WorldQuery& query,
                          const StratifiedOptions& options, Rng* rng) {
  return StratifiedEstimate(
      graph, [&query]() { return query; }, options, rng, SerialEngine());
}

}  // namespace ugs
