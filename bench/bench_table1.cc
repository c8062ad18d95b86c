// Table 1: characteristics of the evaluation datasets. Prints the same
// columns the paper reports (|V|, |E|, |E|/|V|, E[p], E[d_u]) for every
// stand-in, next to the paper's values for the real datasets.

#include <cstdio>

#include "bench/bench_common.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "gen/datasets.h"
#include "graph/graph_stats.h"

int main(int argc, char** argv) {
  ugs::BenchConfig config = ugs::ParseBenchArgs(
      argc, argv, "Table 1: dataset characteristics");

  ugs::ReportTable table({"dataset", "vertices", "edges", "|E|/|V|",
                          "E[pe]", "E[du]", "H(G) bits"});
  auto add = [&](const std::string& name, const ugs::UncertainGraph& g) {
    ugs::GraphStats s = ugs::ComputeStats(g);
    table.AddRow({name, std::to_string(s.num_vertices),
                  std::to_string(s.num_edges),
                  ugs::FormatFixed(s.density, 2),
                  ugs::FormatFixed(s.mean_probability, 3),
                  ugs::FormatFixed(s.mean_expected_degree, 2),
                  ugs::FormatFixed(s.entropy_bits, 0)});
  };

  add("Flickr*", ugs::MakeFlickrLike(config.scale, config.seed + 42));
  add("Twitter*", ugs::MakeTwitterLike(config.scale, config.seed + 43));
  add("FlickrRed*", ugs::MakeFlickrReduced(config.scale, config.seed + 44));
  for (int density : ugs::PaperDensities()) {
    std::size_t n = static_cast<std::size_t>(1000 * config.scale);
    if (n < 64) n = 64;
    add("Synth-" + std::to_string(density),
        ugs::MakeDensitySweepGraph(density, n, config.seed + 45));
  }
  table.Print();

  std::printf(
      "\npaper Table 1 reference:\n"
      "  Flickr     78322 V  10171509 E  E/V=129.89  E[p]=0.09 E[d]=22.93\n"
      "  Twitter    26362 V    663766 E  E/V= 25.17  E[p]=0.15 E[d]= 7.71\n"
      "  Synthetic   1000 V  77099/147565/269325/435336 E  E[p]=0.09\n"
      "(* = synthetic stand-ins at laptop scale; see src/gen/datasets.h)\n");
  return 0;
}
