#ifndef UGS_BENCH_BENCH_COMMON_H_
#define UGS_BENCH_BENCH_COMMON_H_

// Shared dataset construction and reporting for the per-figure bench
// binaries. Every binary prints the stand-in's measured Table-1-style
// stats next to the paper's numbers so the dataset substitution
// (documented in src/gen/datasets.h) stays auditable.

#include <cstdio>
#include <string>

#include "eval/experiment.h"
#include "eval/report.h"
#include "gen/datasets.h"
#include "graph/graph_stats.h"

namespace ugs {
namespace bench {

inline UncertainGraph LoadDataset(const std::string& name,
                                  const BenchConfig& config) {
  UncertainGraph g;
  std::string paper_line;
  if (name == "Flickr") {
    g = MakeFlickrLike(config.scale, config.seed + 42);
    paper_line = "paper Flickr: |V|=78322 |E|=10171509 E/V=129.9 "
                 "E[p]=0.09 E[d]=22.9";
  } else if (name == "Twitter") {
    g = MakeTwitterLike(config.scale, config.seed + 43);
    paper_line = "paper Twitter: |V|=26362 |E|=663766 E/V=25.2 "
                 "E[p]=0.15 E[d]=7.7";
  } else if (name == "FlickrReduced") {
    g = MakeFlickrReduced(config.scale, config.seed + 44);
    paper_line = "paper Flickr-reduced: |V|=5000 |E|=655275 (Forest Fire)";
  } else {
    std::fprintf(stderr, "unknown dataset '%s'\n", name.c_str());
    std::abort();
  }
  std::printf("%s\n", FormatStats(name, ComputeStats(g)).c_str());
  std::printf("  (%s)\n", paper_line.c_str());
  return g;
}

inline UncertainGraph LoadDensityGraph(int density_percent,
                                       const BenchConfig& config) {
  std::size_t n = static_cast<std::size_t>(1000 * config.scale);
  if (n < 64) n = 64;
  UncertainGraph g = MakeDensitySweepGraph(density_percent, n,
                                           config.seed + 45);
  std::printf("%s\n",
              FormatStats("density-" + std::to_string(density_percent),
                          ComputeStats(g)).c_str());
  return g;
}

/// "8%", "16%", ... labels for report columns.
inline std::string AlphaLabel(double alpha) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%g%%", alpha * 100.0);
  return buf;
}

}  // namespace bench
}  // namespace ugs

#endif  // UGS_BENCH_BENCH_COMMON_H_
