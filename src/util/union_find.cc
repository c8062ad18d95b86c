#include "util/union_find.h"

#include <algorithm>
#include <numeric>

namespace ugs {

UnionFind::UnionFind(std::size_t n)
    : parent_(n), size_(n, 1), num_components_(n) {
  std::iota(parent_.begin(), parent_.end(), 0u);
}

std::uint32_t UnionFind::ComponentSize(std::uint32_t x) {
  return size_[Find(x)];
}

void UnionFind::Reset() {
  std::iota(parent_.begin(), parent_.end(), 0u);
  std::fill(size_.begin(), size_.end(), 1u);
  num_components_ = parent_.size();
}

}  // namespace ugs
