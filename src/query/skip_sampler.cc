#include "query/skip_sampler.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/check.h"

namespace ugs {
namespace {

/// Bucket ceilings: edges are assigned to the smallest ceiling >= p.
/// Tight low buckets matter most (that is where the skipping pays).
constexpr double kCeilings[] = {0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0};

/// The largest draw m = Next64() >> 11.
constexpr std::uint64_t kMaxDraw = (std::uint64_t{1} << 53) - 1;

/// Rng::Geometric(cap): the same draws (a zero draw is redrawn, as
/// NextDouble() == 0 is) and the same value, from the bucket's table.
std::size_t GeometricSkip(Rng* rng, const GeometricSkipTable& skips) {
  std::uint64_t m = 0;
  do {
    m = rng->Next64() >> 11;
  } while (m == 0);
  return skips.Skip(m);
}

/// The skip tables of the geometric buckets, one per ceiling below 1.
/// The ceilings are constants, so the tables are built once per process
/// (about 1 ms), on the first SkipWorldSampler.
const std::vector<GeometricSkipTable>& SkipTables() {
  static const std::vector<GeometricSkipTable>* tables = [] {
    auto* built = new std::vector<GeometricSkipTable>();
    for (double cap : kCeilings) {
      if (cap < 1.0) built->emplace_back(cap);
    }
    return built;
  }();
  return *tables;
}

}  // namespace

GeometricSkipTable::GeometricSkipTable(double cap)
    : log_q_(std::log1p(-cap)), ln2_skip_(std::numbers::ln2 / log_q_) {
  UGS_CHECK(cap > 0.0 && cap < 1.0);
  for (std::size_t i = 0; i < mantissa_skip_.size(); ++i) {
    mantissa_skip_[i] =
        std::log1p((static_cast<double>(i) + 0.5) / 256.0) / log_q_;
  }
  // Skips up to the one exceeded with probability 2^-9: (1 - cap)^size.
  const auto size = static_cast<std::size_t>(
      std::ceil(-9.0 * std::numbers::ln2 / log_q_));
  bounds_.reserve(size + 1);
  bounds_.push_back(~std::uint64_t{0});
  for (std::size_t j = 0; j < size; ++j) {
    // The least draw with skip <= j: LogSkip(kMaxDraw) is 0, and a draw
    // of 0 (never taken) stands for an infinite skip.
    std::uint64_t lo = 0, hi = kMaxDraw;
    while (hi - lo > 1) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      (LogSkip(mid) <= j ? hi : lo) = mid;
    }
    bounds_.push_back(hi);
    // Only near the step could a last-place error of log() make the
    // formula non-monotone, which the lookup assumes; check those draws.
    for (std::uint64_t m = hi > 8 ? hi - 8 : 1; m <= std::min(hi + 8, kMaxDraw);
         ++m) {
      if ((LogSkip(m) <= j) != (m >= hi)) {
        bounds_.resize(1);  // Drop the table: every skip uses the formula.
        return;
      }
    }
  }
}

SkipWorldSampler::SkipWorldSampler(const UncertainGraph& graph)
    : num_edges_(graph.num_edges()) {
  buckets_.resize(std::size(kCeilings));
  const std::vector<GeometricSkipTable>& skips = SkipTables();
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b].cap = kCeilings[b];
    buckets_[b].skips = b < skips.size() ? &skips[b] : nullptr;
  }
  // Each edge's table: bucket b, kCertain (p = 1: always present, no
  // randomness needed) or none (p = 0: never present). Counted first so
  // every table is allocated once at its exact size -- a session keeps
  // them for its lifetime.
  const std::uint8_t kCertain = static_cast<std::uint8_t>(buckets_.size());
  const std::uint8_t kNever = kCertain + 1;
  std::vector<std::uint8_t> table(graph.num_edges());
  std::size_t sizes[std::size(kCeilings) + 2] = {};
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const double p = graph.edge(e).p;
    std::uint8_t b = kNever;
    if (p >= 1.0) {
      b = kCertain;
    } else if (p > 0.0) {
      auto it = std::lower_bound(std::begin(kCeilings), std::end(kCeilings),
                                 p);
      b = static_cast<std::uint8_t>(it - std::begin(kCeilings));
    }
    table[e] = b;
    ++sizes[b];
  }
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b].edges.reserve(sizes[b]);
    buckets_[b].thresholds.reserve(sizes[b]);
  }
  certain_.reserve(sizes[kCertain]);
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const std::uint8_t b = table[e];
    const double p = graph.edge(e).p;
    if (b == kCertain) {
      certain_.push_back(e);
    } else if (b < kCertain) {
      // At cap 1.0, p / cap is p itself: the plain Bernoulli threshold.
      buckets_[b].edges.push_back(e);
      buckets_[b].thresholds.push_back(Rng::DrawThreshold(p / kCeilings[b]));
    }
  }
  for (const Bucket& bucket : buckets_) {
    // One geometric draw per candidate plus one acceptance draw:
    // candidates appear at rate cap.
    expected_draws_ +=
        2.0 * bucket.cap * static_cast<double>(bucket.edges.size());
  }
}

void SkipWorldSampler::Sample(Rng* rng, World* world) const {
  world->Reset(num_edges_);
  std::uint64_t* words = world->words().data();
  const auto mark = [words](EdgeId e, bool present) {
    words[e >> 6] |= std::uint64_t{present} << (e & 63);
  };
  for (EdgeId e : certain_) mark(e, true);
  for (const Bucket& bucket : buckets_) {
    const std::size_t count = bucket.edges.size();
    if (count == 0) continue;
    // Acceptance is ORed in, not branched on (a branch taken with
    // probability 0.5-0.9 mispredicts). Safe because the words were
    // zeroed above, every edge is in exactly one bucket and i only
    // increases: each bit is written at most once per world.
    if (bucket.cap >= 1.0) {
      // No skipping gain at cap 1; plain per-edge Bernoulli.
      for (std::size_t i = 0; i < count; ++i) {
        mark(bucket.edges[i], rng->NextBelow(bucket.thresholds[i]));
      }
      continue;
    }
    // Geometric skipping: position of the next candidate under
    // Bernoulli(cap), thinned to p_e by the acceptance ratio.
    std::size_t i = GeometricSkip(rng, *bucket.skips);
    while (i < count) {
      mark(bucket.edges[i], rng->NextBelow(bucket.thresholds[i]));
      i += 1 + GeometricSkip(rng, *bucket.skips);
    }
  }
  world->Compact();
}

void SkipWorldSampler::Sample(Rng* rng, std::vector<char>* present) const {
  World world;
  Sample(rng, &world);
  world.CopyFlags(present);
}

}  // namespace ugs
