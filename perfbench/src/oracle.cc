#include "oracle.h"

#include <cmath>
#include <cstdlib>
#include <numeric>

namespace perfbench {
namespace {

/// Path-halving union-find over a fixed vertex count.
class Components {
 public:
  explicit Components(std::size_t n) : parent_(n) { Reset(); }
  void Reset() { std::iota(parent_.begin(), parent_.end(), 0u); }
  std::uint32_t Root(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Join(std::uint32_t a, std::uint32_t b) { parent_[Root(a)] = Root(b); }

 private:
  std::vector<std::uint32_t> parent_;
};

/// BFS hop distance from s to t over the edges present in `mask`; -1 when
/// t is unreachable.
int Hops(std::size_t n, const std::vector<OracleEdge>& edges,
         std::uint32_t mask, std::uint32_t s, std::uint32_t t) {
  std::vector<int> dist(n, -1);
  std::vector<std::uint32_t> frontier{s};
  dist[s] = 0;
  while (!frontier.empty()) {
    std::vector<std::uint32_t> next;
    for (std::uint32_t x : frontier) {
      for (std::size_t e = 0; e < edges.size(); ++e) {
        if (!(mask >> e & 1u)) continue;
        std::uint32_t y;
        if (edges[e].u == x) {
          y = edges[e].v;
        } else if (edges[e].v == x) {
          y = edges[e].u;
        } else {
          continue;
        }
        if (dist[y] < 0) {
          dist[y] = dist[x] + 1;
          next.push_back(y);
        }
      }
    }
    frontier.swap(next);
  }
  return dist[t];
}

}  // namespace

PairMoments ExactPair(std::size_t n, const std::vector<OracleEdge>& edges,
                      std::uint32_t s, std::uint32_t t) {
  if (edges.size() > 24) std::abort();
  const std::uint32_t worlds = 1u << edges.size();
  Components uf(n);
  double connected = 0.0, d1 = 0.0, d2 = 0.0;
  for (std::uint32_t mask = 0; mask < worlds; ++mask) {
    double pr = 1.0;
    uf.Reset();
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (mask >> e & 1u) {
        pr *= edges[e].p;
        uf.Join(edges[e].u, edges[e].v);
      } else {
        pr *= 1.0 - edges[e].p;
      }
    }
    if (uf.Root(s) != uf.Root(t)) continue;
    connected += pr;
    const double d = Hops(n, edges, mask, s, t);
    d1 += pr * d;
    d2 += pr * d * d;
  }
  PairMoments m;
  m.reliability = connected;
  if (connected > 0.0) {
    m.mean_distance = d1 / connected;
    m.var_distance = std::max(0.0, d2 / connected - m.mean_distance * m.mean_distance);
  }
  return m;
}

std::vector<double> ExpectedDegrees(std::size_t n,
                                    const std::vector<OracleEdge>& edges) {
  std::vector<double> d(n, 0.0);
  for (const OracleEdge& e : edges) {
    d[e.u] += e.p;
    d[e.v] += e.p;
  }
  return d;
}

double MeanAbsDifference(const std::vector<double>& a,
                         const std::vector<double>& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += std::abs(a[i] - b[i]);
  return a.empty() ? 0.0 : sum / static_cast<double>(a.size());
}

}  // namespace perfbench
