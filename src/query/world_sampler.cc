#include "query/world_sampler.h"

#include <bit>
#include <cstring>
#include <utility>

namespace ugs {
namespace {

/// Bit 7 of byte i is set iff flags[i] != 0, for the eight flags at
/// `flags`.
std::uint64_t NonzeroBytes(const char* flags) {
  static_assert(std::endian::native == std::endian::little,
                "byte i of the loaded word must be flags[i]");
  constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
  std::uint64_t word = 0;
  std::memcpy(&word, flags, sizeof(word));
  return (word | ((word & kLow7) + kLow7)) & ~kLow7;
}

}  // namespace

World::World(std::vector<char> present) : present_(std::move(present)) {
  Compact();
}

void World::Compact() {
  const std::size_t m = present_.size();
  const std::size_t words_end = m - m % 8;
  const char* flags = present_.data();
  // Count the present edges eight flags per step, so the list is sized
  // to them (never to |E|), then emit every id unconditionally and
  // advance past it only when present: no branch on the flags, so no
  // misprediction on each word's variable bit count. The one spare slot
  // takes the store past the last present edge.
  std::size_t count = 0;
  for (std::size_t e = 0; e < words_end; e += 8) {
    count += std::popcount(NonzeroBytes(flags + e));
  }
  for (std::size_t e = words_end; e < m; ++e) count += flags[e] != 0;
  ids_.resize(count + 1);
  EdgeId* out = ids_.data();
  std::size_t n = 0;
  for (std::size_t e = 0; e < m; ++e) {
    out[n] = static_cast<EdgeId>(e);
    n += flags[e] != 0;
  }
  ids_.resize(count);
}

void SampleWorld(const UncertainGraph& graph, Rng* rng,
                 std::vector<char>* present) {
  const std::size_t m = graph.num_edges();
  present->resize(m);
  const std::span<const UncertainEdge> edges = graph.edges();
  for (std::size_t e = 0; e < m; ++e) {
    (*present)[e] = rng->Bernoulli(edges[e].p) ? 1 : 0;
  }
}

void SampleWorld(const UncertainGraph& graph, Rng* rng, World* world) {
  SampleWorld(graph, rng, &world->present());
  world->Compact();
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
