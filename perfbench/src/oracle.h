// Oracles the benchmark computes on its own, from edge lists alone: exact
// possible-world enumeration with its own union-find and BFS, and
// expected-degree discrepancy. Nothing here calls into the program.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

struct OracleEdge {
  std::uint32_t u;
  std::uint32_t v;
  double p;
};

/// Exact moments of one (s, t) pair over all 2^m worlds.
struct PairMoments {
  double reliability = 0.0;     ///< Pr[s ~ t].
  double mean_distance = 0.0;   ///< E[d(s,t) | s ~ t] (BFS hops).
  double var_distance = 0.0;    ///< Var[d(s,t) | s ~ t].
};

/// Enumerates every world of a graph with at most 24 edges.
PairMoments ExactPair(std::size_t n, const std::vector<OracleEdge>& edges,
                      std::uint32_t s, std::uint32_t t);

/// d(u) = sum of incident edge probabilities.
std::vector<double> ExpectedDegrees(std::size_t n,
                                    const std::vector<OracleEdge>& edges);

/// Mean over vertices of |d_a(u) - d_b(u)|.
double MeanAbsDifference(const std::vector<double>& a,
                         const std::vector<double>& b);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
