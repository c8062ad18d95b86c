#ifndef UGS_QUERY_SKIP_SAMPLER_H_
#define UGS_QUERY_SKIP_SAMPLER_H_

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/uncertain_graph.h"
#include "query/world_sampler.h"
#include "util/random.h"

namespace ugs {

/// Rng::Geometric(cap)'s skip, read from integer thresholds. For a draw
/// m = Next64() >> 11 > 0 (NextDouble() is m * 2^-53), the skip
/// floor(log(m * 2^-53) / log1p(-cap)) never increases with m, so it is
/// the first j with m >= bound(j), where bound(j) is the least draw whose
/// skip is at most j. The bounds are found by bisection on that very
/// formula, so a lookup returns exactly what the formula returns; each
/// one is then checked against the formula on the 16 draws around it
/// (the only draws where a libm log's last-place error could cross the
/// step), and a table that fails the check is dropped. The table covers
/// the skips taken with probability >= 2^-9; a guess from the draw's
/// exponent and top mantissa bits lands on or next to the answer, and
/// longer skips fall back to the formula.
class GeometricSkipTable {
 public:
  explicit GeometricSkipTable(double cap);

  /// The skip of draw m > 0: LogSkip(m), found without a log().
  std::size_t Skip(std::uint64_t m) const {
    // ln(m * 2^-53) / log1p(-cap), with ln taken to ~2^-9: the exponent
    // of m, plus ln of its mantissa read from the top 8 bits.
    const auto bits = std::bit_cast<std::uint64_t>(
        static_cast<double>(static_cast<std::int64_t>(m)));
    const double guess =
        static_cast<double>(static_cast<int>(bits >> 52) - (1023 + 53)) *
            ln2_skip_ +
        mantissa_skip_[(bits >> 44) & 0xff];
    const std::size_t size = bounds_.size() - 1;
    std::size_t k = guess > 0.0 ? static_cast<std::size_t>(guess) : 0;
    if (k >= size) return LogSkip(m);
    // bounds_[j + 1] = bound(j); bounds_[0] is above every draw.
    const std::uint64_t* bound = bounds_.data();
    while (m < bound[k + 1]) {
      if (++k == size) return LogSkip(m);
    }
    while (m >= bound[k]) --k;
    return k;
  }

  /// The formula itself: Rng::Geometric(cap) on the draw m.
  std::size_t LogSkip(std::uint64_t m) const {
    const double u = static_cast<double>(m) * 0x1.0p-53;
    return static_cast<std::size_t>(std::floor(std::log(u) / log_q_));
  }

  /// Skips the table covers (0 when it was dropped).
  std::size_t size() const { return bounds_.size() - 1; }

 private:
  double log_q_;      // log1p(-cap).
  double ln2_skip_;   // ln(2) / log_q_: the skip of one binary exponent.
  /// ln(1 + (i + 0.5) / 256) / log_q_: the skip of a mantissa whose top 8
  /// bits are i.
  std::array<double, 256> mantissa_skip_;
  std::vector<std::uint64_t> bounds_;
};

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
/// The tables (buckets, and each candidate's acceptance threshold
/// Rng::DrawThreshold(p_e / c)) are built once per graph: a GraphSession
/// builds them on its first skip-sampled request and shares them with
/// every later one. The geometric skips come from a GeometricSkipTable
/// per ceiling, built once per process.
///
/// Cost. Every draw is an integer comparison against a threshold, and
/// each gives exactly the outcome of the double comparison it replaces:
/// acceptance is `(Next64() >> 11) < threshold` instead of
/// `NextDouble() < p_e / c`, and a geometric skip is looked up among the
/// integer draws where floor(log(u) / log1p(-c)) steps, instead of
/// calling log() for each of the ~10,250 candidates of a world, which
/// was ~85% of a world's draws. Acceptance is ORed into the world's bit
/// rather than branched on (true with probability 0.5-0.9, a branch
/// mispredicted thousands of times per world), which is correct because
/// every word is zeroed first and each edge is drawn at most once per
/// world: the buckets partition the edges and a bucket's candidate index
/// only increases. Measured on the Twitter stand-in (Release, one thread,
/// 4-core 2.0 GHz shared container, medians of 5 repetitions, ranges
/// over 3 alternating runs; bench_micro BM_Twitter* rows): a world with
/// its present-edge list costs 63-71 us (127-147 us with byte flags and
/// a log() per skip), its compaction 13-14 us of that (36-54 us over
/// byte flags), and union-find over its ~7,900 present edges another
/// 45-48 us. The tables cost 0.9-1.3 ms per graph, and the skip tables
/// ~1 ms once per process.
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

  /// Samples one world and compacts its present-edge list.
  void Sample(Rng* rng, World* world) const;

  /// The same draws as one byte per edge into `present` (resized to |E|;
  /// whatever it held is overwritten).
  void Sample(Rng* rng, std::vector<char>* present) const;

  /// Expected RNG draws per world (for introspection/tests).
  double ExpectedDraws() const { return expected_draws_; }

 private:
  struct Bucket {
    double cap;                   // Max probability in the bucket.
    std::vector<EdgeId> edges;    // Edge ids, bucket order.
    /// Rng::DrawThreshold(p_e / cap), parallel to edges: the
    /// acceptance test `NextDouble() < p_e / cap` as an integer compare.
    std::vector<std::uint64_t> thresholds;

    /// The bucket's geometric skips (null at cap 1, which never skips).
    const GeometricSkipTable* skips;
  };

  std::size_t num_edges_;
  std::vector<Bucket> buckets_;
  std::vector<EdgeId> certain_;   // p == 1 edges, always present.
  double expected_draws_ = 0.0;
};

}  // namespace ugs

#endif  // UGS_QUERY_SKIP_SAMPLER_H_
