#ifndef UGS_QUERY_WORLD_SAMPLER_H_
#define UGS_QUERY_WORLD_SAMPLER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/uncertain_graph.h"
#include "util/random.h"

namespace ugs {

/// One possible world, held two ways: the presence flags (parallel to
/// graph.edges(), for O(1) membership tests) and the ascending ids of the
/// present edges. Every per-world kernel loops over the latter, so a
/// world costs its ~E[p]|E| present edges instead of all |E|. Reused
/// across the worlds of a batch, so its buffers are allocated once.
class World {
 public:
  World() = default;

  /// The world with these presence flags (compacted on construction).
  explicit World(std::vector<char> present);

  /// Presence flags. A caller that overwrites entries (stratified pivot
  /// conditioning) must call Compact() before the world is read again.
  std::vector<char>& present() { return present_; }
  const std::vector<char>& present() const { return present_; }

  /// Ascending ids of the present edges, as of the last Compact().
  std::span<const EdgeId> present_edges() const { return ids_; }

  /// Re-derives present_edges() from the flags: a popcount pass sizes
  /// the list, a branch-free pass fills it. Any nonzero flag byte counts
  /// as present.
  void Compact();

 private:
  std::vector<char> present_;
  std::vector<EdgeId> ids_;
};

/// Samples one possible world: present[e] = 1 with probability p_e,
/// independently per edge (possible-world semantics, Section 1). O(|E|).
/// `present` is resized to |E|.
void SampleWorld(const UncertainGraph& graph, Rng* rng,
                 std::vector<char>* present);

/// Same draws into a World's flags, then compacts its present-edge list.
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
