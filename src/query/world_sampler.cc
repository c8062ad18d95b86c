#include "query/world_sampler.h"

#include <algorithm>
#include <bit>

namespace ugs {

World::World(const std::vector<char>& present) {
  Reset(present.size());
  for (std::size_t e = 0; e < present.size(); ++e) {
    words_[e >> 6] |= std::uint64_t{present[e] != 0} << (e & 63);
  }
  Compact();
}

void World::Reset(std::size_t num_edges) {
  num_edges_ = num_edges;
  words_.assign((num_edges + 63) / 64, 0);
}

void World::Compact() {
  // Count the present edges first, so the list is sized to them (never
  // to |E|), then emit each word's set bits in ascending order.
  std::size_t count = 0;
  for (std::uint64_t word : words_) count += std::popcount(word);
  ids_.resize(count);
  EdgeId* out = ids_.data();
  for (std::size_t w = 0; w < words_.size(); ++w) {
    const EdgeId base = static_cast<EdgeId>(w * 64);
    for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
      *out++ = base + static_cast<EdgeId>(std::countr_zero(bits));
    }
  }
}

void World::CopyFlags(std::vector<char>* flags) const {
  flags->resize(num_edges_);
  char* out = flags->data();
  for (std::size_t w = 0; w < words_.size(); ++w) {
    const std::uint64_t bits = words_[w];
    const std::size_t count = std::min<std::size_t>(64, num_edges_ - w * 64);
    for (std::size_t j = 0; j < count; ++j) {
      out[w * 64 + j] = static_cast<char>((bits >> j) & 1);
    }
  }
}

PlainWorldSampler::PlainWorldSampler(const UncertainGraph& graph)
    : num_edges_(graph.num_edges()) {
  // Rng::Bernoulli's partition: p >= 1 is present and p <= 0 absent,
  // neither drawn; every other p takes one draw. Counted first so each
  // table is allocated once at its exact size -- a session keeps them
  // for its lifetime.
  const std::span<const UncertainEdge> edges = graph.edges();
  std::size_t num_uncertain = 0, num_certain = 0;
  for (const UncertainEdge& edge : edges) {
    num_certain += edge.p >= 1.0;
    num_uncertain += !(edge.p <= 0.0) && !(edge.p >= 1.0);
  }
  uncertain_.resize(num_uncertain);
  thresholds_.resize(num_uncertain);
  certain_.resize(num_certain);
  std::size_t u = 0, c = 0;
  for (EdgeId e = 0; e < edges.size(); ++e) {
    const double p = edges[e].p;
    if (p >= 1.0) {
      certain_[c++] = e;
    } else if (!(p <= 0.0)) {
      uncertain_[u] = e;
      thresholds_[u++] = Rng::DrawThreshold(p);
    }
  }
}

void PlainWorldSampler::Sample(Rng* rng, World* world) const {
  world->Reset(num_edges_);
  std::uint64_t* words = world->words().data();
  for (EdgeId e : certain_) words[e >> 6] |= std::uint64_t{1} << (e & 63);
  const std::size_t count = uncertain_.size();
  for (std::size_t i = 0; i < count; ++i) {
    const EdgeId e = uncertain_[i];
    words[e >> 6] |= std::uint64_t{rng->NextBelow(thresholds_[i])}
                     << (e & 63);
  }
  world->Compact();
}

void SampleWorld(const UncertainGraph& graph, Rng* rng,
                 std::vector<char>* present) {
  World world;
  SampleWorld(graph, rng, &world);
  world.CopyFlags(present);
}

void SampleWorld(const UncertainGraph& graph, Rng* rng, World* world) {
  PlainWorldSampler(graph).Sample(rng, world);
}

void WorldAdjacency::Build(const UncertainGraph& graph, const World& world) {
  const std::size_t n = graph.num_vertices();
  const std::span<const UncertainEdge> edges = graph.edges();
  const std::span<const EdgeId> present = world.present_edges();
  // Counting sort by endpoint: degrees, then their running sums (slice
  // ends), then each edge is placed by pre-decrementing its endpoints'
  // ends, which leaves every entry at its slice's begin. Walking the
  // edges backwards keeps each slice in ascending edge-id order.
  offsets_.assign(n + 1, 0);
  for (EdgeId e : present) {
    ++offsets_[edges[e].u];
    ++offsets_[edges[e].v];
  }
  std::size_t total = 0;
  for (std::size_t& offset : offsets_) {
    total += offset;
    offset = total;
  }
  neighbors_.resize(total);
  for (std::size_t i = present.size(); i-- > 0;) {
    const UncertainEdge& edge = edges[present[i]];
    neighbors_[--offsets_[edge.u]] = edge.v;
    neighbors_[--offsets_[edge.v]] = edge.u;
  }
}

std::size_t CountPresent(const std::vector<char>& present) {
  std::size_t count = 0;
  for (char c : present) count += (c != 0);
  return count;
}

double McSamples::UnitMean(std::size_t unit) const {
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t s = 0; s < num_samples; ++s) {
    if (IsValid(s, unit)) {
      sum += At(s, unit);
      ++count;
    }
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

std::vector<double> McSamples::UnitSamples(std::size_t unit) const {
  std::vector<double> out;
  out.reserve(num_samples);
  for (std::size_t s = 0; s < num_samples; ++s) {
    if (IsValid(s, unit)) out.push_back(At(s, unit));
  }
  return out;
}

}  // namespace ugs
