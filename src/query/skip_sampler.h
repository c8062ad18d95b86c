#ifndef UGS_QUERY_SKIP_SAMPLER_H_
#define UGS_QUERY_SKIP_SAMPLER_H_

#include <vector>

#include "graph/uncertain_graph.h"
#include "query/world_sampler.h"
#include "util/random.h"

namespace ugs {

/// Possible-world sampler that draws fewer random numbers on
/// low-probability graphs; what the `auto` estimator policy picks when
/// E[p] < 0.25 (query/estimator_policy.h).
///
/// The plain sampler draws one uniform per edge -- O(|E|) RNG calls. This
/// one buckets edges by probability ceiling c and walks each bucket with
/// geometric skips: the next *candidate* index is Geometric(c) away, and
/// a candidate edge e is accepted with p_e / c (majorization). The
/// expected number of RNG calls drops from |E| to roughly
/// 2 sum_buckets c_b |bucket_b| (~20,500 instead of 49,571 on the default
/// Twitter stand-in, E[p] = 0.156).
///
/// The tables (buckets, acceptance ratios and each bucket's log1p(-c),
/// the divisor of every geometric draw) are built once per graph: a
/// GraphSession builds them on its first skip-sampled request and shares
/// them with every later one.
///
/// Cost. The largest per-world cost was not the log() inside each
/// geometric draw but the acceptance test: true with probability
/// p_e / c, 0.5-0.9, it mispredicted thousands of times per world as a
/// branch. Acceptance is therefore a straight store of the comparison,
/// which is correct because every flag is zeroed first and then written
/// at most once per world: the buckets partition the edges and a
/// bucket's candidate index only increases. Measured on the Twitter stand-in (Release, one thread,
/// 4-core 2.0 GHz shared container, medians of 5 repetitions, ranges
/// over 3 runs; bench_micro BM_Twitter* rows): the tables cost 1.2-1.5
/// ms to build; a world's draws cost 161-187 us (231-262 us with the
/// acceptance branch), 202-257 us with its present-edge list (343-389
/// us before), and union-find over its ~7,900 present edges another
/// 64-76 us. A guarded fast log() was tried and drew bit-identical
/// skips, but made a world slower, so std::log stays.
///
/// Produces exactly the same per-edge inclusion distribution as
/// SampleWorld (each edge independently present with p_e); the random
/// streams differ, so worlds are not bitwise-identical across samplers.
///
/// To run any engine-based evaluator on skip-sampled worlds, set
/// SampleEngineOptions::use_skip_sampler; the engine drives the sampler
/// with the same per-sample seed-split RNGs as the plain sampler
/// (deterministic at any thread count).
class SkipWorldSampler {
 public:
  explicit SkipWorldSampler(const UncertainGraph& graph);

  /// Samples one world into `present` (resized to |E|; whatever it held
  /// is overwritten).
  void Sample(Rng* rng, std::vector<char>* present) const;

  /// Same draws into a World's flags, then compacts its present-edge
  /// list.
  void Sample(Rng* rng, World* world) const;

  /// Expected RNG draws per world (for introspection/tests).
  double ExpectedDraws() const { return expected_draws_; }

 private:
  struct Bucket {
    double cap;                   // Max probability in the bucket.
    std::vector<EdgeId> edges;    // Edge ids, bucket order.
    std::vector<double> accept;   // p_e / cap, parallel to edges.

    /// log1p(-cap): the divisor of every geometric skip in the bucket.
    double log_q;
  };

  const UncertainGraph* graph_;
  std::vector<Bucket> buckets_;
  std::vector<EdgeId> certain_;   // p == 1 edges, always present.
  double expected_draws_ = 0.0;
};

}  // namespace ugs

#endif  // UGS_QUERY_SKIP_SAMPLER_H_
