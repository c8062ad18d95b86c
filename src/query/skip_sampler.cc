#include "query/skip_sampler.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ugs {
namespace {

/// Bucket ceilings: edges are assigned to the smallest ceiling >= p.
/// Tight low buckets matter most (that is where the skipping pays).
constexpr double kCeilings[] = {0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0};

/// Rng::Geometric(cap) with the bucket's log1p(-cap) precomputed: the
/// same draws and the same arithmetic, so the same value.
std::size_t GeometricSkip(Rng* rng, double log_q) {
  double u = 0.0;
  do {
    u = rng->NextDouble();
  } while (u == 0.0);
  return static_cast<std::size_t>(std::floor(std::log(u) / log_q));
}

}  // namespace

SkipWorldSampler::SkipWorldSampler(const UncertainGraph& graph)
    : graph_(&graph) {
  buckets_.resize(std::size(kCeilings));
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b].cap = kCeilings[b];
    buckets_[b].log_q = std::log1p(-kCeilings[b]);
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
    buckets_[b].accept.reserve(sizes[b]);
  }
  certain_.reserve(sizes[kCertain]);
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const std::uint8_t b = table[e];
    const double p = graph.edge(e).p;
    if (b == kCertain) {
      certain_.push_back(e);
    } else if (b < kCertain) {
      buckets_[b].edges.push_back(e);
      buckets_[b].accept.push_back(p / kCeilings[b]);
    }
  }
  for (const Bucket& bucket : buckets_) {
    // One geometric draw per candidate plus one acceptance draw:
    // candidates appear at rate cap.
    expected_draws_ +=
        2.0 * bucket.cap * static_cast<double>(bucket.edges.size());
  }
}

void SkipWorldSampler::Sample(Rng* rng, std::vector<char>* present) const {
  present->assign(graph_->num_edges(), 0);
  char* flags = present->data();
  for (EdgeId e : certain_) flags[e] = 1;
  for (const Bucket& bucket : buckets_) {
    const std::size_t count = bucket.edges.size();
    if (count == 0) continue;
    // Acceptance is a straight store, not a branch (a branch taken with
    // probability 0.5-0.9 mispredicts). Safe because the flags were
    // zeroed above, every edge is in exactly one bucket and i only
    // increases: each flag is written at most once per world.
    if (bucket.cap >= 1.0) {
      // No skipping gain at cap 1; plain per-edge Bernoulli.
      for (std::size_t i = 0; i < count; ++i) {
        flags[bucket.edges[i]] =
            rng->NextDouble() < bucket.accept[i] * bucket.cap;
      }
      continue;
    }
    // Geometric skipping: position of the next candidate under
    // Bernoulli(cap), thinned to p_e by the acceptance ratio.
    std::size_t i = GeometricSkip(rng, bucket.log_q);
    while (i < count) {
      flags[bucket.edges[i]] = rng->NextDouble() < bucket.accept[i];
      i += 1 + GeometricSkip(rng, bucket.log_q);
    }
  }
}

void SkipWorldSampler::Sample(Rng* rng, World* world) const {
  Sample(rng, &world->present());
  world->Compact();
}

}  // namespace ugs
