#ifndef UGS_UTIL_UNION_FIND_H_
#define UGS_UTIL_UNION_FIND_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"

namespace ugs {

/// Disjoint-set forest with union by size and path halving.
///
/// Used by the spanning-forest peeling in backbone initialization
/// (Algorithm 1) and the Nagamochi-Ibaraki forest decomposition
/// (Algorithm 4), and by connectivity checks in tests.
class UnionFind {
 public:
  /// Creates n singleton sets {0}, {1}, ..., {n-1}.
  explicit UnionFind(std::size_t n);

  // Find and Union are defined here so the per-world connectivity loop
  // (ConnectWorld) and the backbone's spanning-forest peeling inline
  // them.

  /// Returns the representative of x's set.
  std::uint32_t Find(std::uint32_t x) {
    UGS_DCHECK(x < parent_.size());
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // Path halving.
      x = parent_[x];
    }
    return x;
  }

  /// Merges the sets of a and b; returns true iff they were distinct.
  bool Union(std::uint32_t a, std::uint32_t b) {
    std::uint32_t ra = Find(a);
    std::uint32_t rb = Find(b);
    if (ra == rb) return false;
    if (size_[ra] < size_[rb]) std::swap(ra, rb);
    parent_[rb] = ra;
    size_[ra] += size_[rb];
    --num_components_;
    return true;
  }

  /// True iff a and b are in the same set.
  bool Connected(std::uint32_t a, std::uint32_t b) {
    return Find(a) == Find(b);
  }

  /// Number of disjoint sets remaining.
  std::size_t num_components() const { return num_components_; }

  /// Size of the set containing x.
  std::uint32_t ComponentSize(std::uint32_t x);

  /// Resets to n singleton sets (reuses storage).
  void Reset();

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
  std::size_t num_components_;
};

}  // namespace ugs

#endif  // UGS_UTIL_UNION_FIND_H_
