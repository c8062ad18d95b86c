#ifndef UGS_QUERY_WORLD_SAMPLER_H_
#define UGS_QUERY_WORLD_SAMPLER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/uncertain_graph.h"
#include "util/random.h"

namespace ugs {

/// One possible world, held two ways: a presence bitset parallel to
/// graph.edges() (edge e is bit e & 63 of word e >> 6, for O(1)
/// membership tests) and the ascending ids of the present edges. Every
/// per-world kernel loops over the latter, so a world costs its
/// ~E[p]|E| present edges instead of all |E|. Reused across the worlds of
/// a batch, so its buffers are allocated once. One bit per edge keeps
/// the flags of a 49,571-edge graph at 6.2 KB, inside L1.
class World {
 public:
  World() = default;

  /// The world with these presence flags, one byte per edge (any
  /// nonzero byte counts as present), compacted on construction: the
  /// bridge for the byte-flag kernel overloads.
  explicit World(const std::vector<char>& present);

  /// Clears the world to `num_edges` absent edges. Samplers then OR their
  /// draws into words() and call Compact().
  void Reset(std::size_t num_edges);

  std::size_t num_edges() const { return num_edges_; }

  /// The presence words, ceil(|E| / 64) of them; the bits past |E| stay
  /// zero. A caller that changes bits must call Compact() before the
  /// present-edge list is read again.
  std::span<std::uint64_t> words() { return words_; }
  std::span<const std::uint64_t> words() const { return words_; }

  bool Has(EdgeId e) const { return (words_[e >> 6] >> (e & 63)) & 1; }

  /// Sets edge e present or absent (stratified pivot conditioning); call
  /// Compact() before the list is read again.
  void Set(EdgeId e, bool present) {
    const std::uint64_t bit = std::uint64_t{1} << (e & 63);
    words_[e >> 6] = (words_[e >> 6] & ~bit) | (present ? bit : 0);
  }

  /// Ascending ids of the present edges, as of the last Compact().
  std::span<const EdgeId> present_edges() const { return ids_; }

  /// Re-derives present_edges() from the bits: a popcount pass sizes the
  /// list, then each word emits its set bits lowest first (count
  /// trailing zeros, clear the lowest bit).
  void Compact();

  /// The presence as one byte per edge (1 present, 0 absent), |E| of
  /// them: the bridge for the byte-flag sampler overloads.
  void CopyFlags(std::vector<char>* flags) const;

 private:
  std::size_t num_edges_ = 0;
  std::vector<std::uint64_t> words_;
  std::vector<EdgeId> ids_;
};

/// The plain possible-world sampler: every edge independently present
/// with p_e, one draw per uncertain edge (0 < p < 1) in ascending id
/// order, each against its precomputed Rng::DrawThreshold -- the draws
/// and outcomes of Rng::Bernoulli(p_e) over all edges, which draws
/// nothing for p <= 0 and p >= 1. Its tables (the uncertain edges' ids
/// and thresholds, 12 B per edge, and the certain edges) are built once
/// per graph: a GraphSession builds them on its first plain-sampled
/// request and shares them with every later one. p = 0 edges are in no
/// table, so a world never visits them.
class PlainWorldSampler {
 public:
  explicit PlainWorldSampler(const UncertainGraph& graph);

  /// Samples one world and compacts its present-edge list.
  void Sample(Rng* rng, World* world) const;

 private:
  std::size_t num_edges_;
  std::vector<EdgeId> uncertain_;          // 0 < p < 1, ascending.
  std::vector<std::uint64_t> thresholds_;  // Parallel to uncertain_.
  std::vector<EdgeId> certain_;            // p >= 1: always present.
};

/// Samples one possible world with the plain sampler: present[e] = 1
/// with probability p_e, independently per edge (possible-world
/// semantics, Section 1). Builds the sampler's tables on every call;
/// hold a PlainWorldSampler (or a SampleEngine bound to the graph) to
/// draw many worlds. `present` is resized to |E|.
void SampleWorld(const UncertainGraph& graph, Rng* rng,
                 std::vector<char>* present);

/// Same draws into a World, then compacts its present-edge list.
void SampleWorld(const UncertainGraph& graph, Rng* rng, World* world);

/// The adjacency of one world: its present edges only, as a compact CSR
/// built in O(|V| + |present|) from World::present_edges(). Built once
/// per world and shared by every BFS or triangle pass over it. Within a
/// vertex, neighbors follow edge-id order; BFS levels and triangle counts
/// do not depend on that order.
class WorldAdjacency {
 public:
  /// (Re)builds the adjacency of `world`; the accessors below read the
  /// last build.
  void Build(const UncertainGraph& graph, const World& world);

  std::size_t num_vertices() const { return offsets_.size() - 1; }

  std::span<const VertexId> Neighbors(VertexId u) const {
    return {neighbors_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

 private:
  std::vector<std::size_t> offsets_;  // Slice begins, then 2 |present|.
  std::vector<VertexId> neighbors_;
};

/// Number of edges present in a sampled world.
std::size_t CountPresent(const std::vector<char>& present);

/// A matrix of per-unit query results across Monte-Carlo samples, where a
/// "unit" is whatever the query is evaluated on (a vertex for PageRank and
/// clustering coefficient, a vertex pair for shortest-path distance and
/// reliability). values[s * num_units + u] is unit u's result in sample s.
///
/// `valid` (same layout) marks entries that participate in result
/// distributions; queries that condition on an event (shortest-path
/// distance conditions on the pair being connected, paper Section 6.3)
/// mark the complement invalid. Empty `valid` means everything counts.
struct McSamples {
  std::size_t num_units = 0;
  std::size_t num_samples = 0;
  std::vector<double> values;
  std::vector<char> valid;

  double At(std::size_t sample, std::size_t unit) const {
    return values[sample * num_units + unit];
  }
  bool IsValid(std::size_t sample, std::size_t unit) const {
    return valid.empty() || valid[sample * num_units + unit] != 0;
  }

  /// Mean of unit u's valid entries (0 if none are valid).
  double UnitMean(std::size_t unit) const;

  /// Pulls unit u's valid entries into a vector (for distribution
  /// comparisons).
  std::vector<double> UnitSamples(std::size_t unit) const;

  /// Bitwise equality of the full matrices -- the comparison behind the
  /// engine's identical-at-any-thread-count determinism checks.
  friend bool operator==(const McSamples& a, const McSamples& b) {
    return a.num_units == b.num_units && a.num_samples == b.num_samples &&
           a.values == b.values && a.valid == b.valid;
  }
};

}  // namespace ugs

#endif  // UGS_QUERY_WORLD_SAMPLER_H_
