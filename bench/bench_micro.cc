// Micro-benchmarks (google-benchmark) for the hot operations behind the
// paper's experiments: possible-world sampling, GDB sweeps, EMD E-phase,
// backbone construction, heap operations, the LP max-flow, and the query
// kernels. Not part of the paper's evaluation; used to track the
// library's own performance.

#include <benchmark/benchmark.h>

#include <map>
#include <utility>

#include "gen/datasets.h"
#include "gen/generators.h"
#include "query/pagerank.h"
#include "query/reliability.h"
#include "query/skip_sampler.h"
#include "query/shortest_path.h"
#include "query/world_sampler.h"
#include "sparsify/backbone.h"
#include "sparsify/emd.h"
#include "sparsify/gdb.h"
#include "sparsify/lp_assign.h"
#include "sparsify/sparsifier.h"
#include "util/indexed_heap.h"
#include "util/union_find.h"

namespace {

const ugs::UncertainGraph& BenchGraph(std::size_t n, double avg_degree) {
  static std::map<std::pair<std::size_t, int>, ugs::UncertainGraph> cache;
  auto key = std::make_pair(n, static_cast<int>(avg_degree));
  auto it = cache.find(key);
  if (it == cache.end()) {
    ugs::Rng rng(1234);
    ugs::ChungLuOptions options;
    options.num_vertices = n;
    options.avg_degree = avg_degree;
    it = cache.emplace(key, ugs::GenerateChungLu(
                                options,
                                ugs::ProbabilityDistribution::Uniform(
                                    0.05, 0.6),
                                &rng))
             .first;
  }
  return it->second;
}

void BM_SampleWorld(benchmark::State& state) {
  const ugs::UncertainGraph& g =
      BenchGraph(static_cast<std::size_t>(state.range(0)), 16.0);
  ugs::Rng rng(1);
  std::vector<char> present;
  for (auto _ : state) {
    ugs::SampleWorld(g, &rng, &present);
    benchmark::DoNotOptimize(present.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_SampleWorld)->Arg(1000)->Arg(4000);

void BM_SkipSampleWorld(benchmark::State& state) {
  // Bucketed geometric-skip sampler on a low-probability graph: ~4x fewer
  // random numbers than BM_SampleWorld, each geometric skip paying a
  // log() (see skip_sampler.h for the per-world figures).
  ugs::Rng g_rng(99);
  ugs::ChungLuOptions options;
  options.num_vertices = static_cast<std::size_t>(state.range(0));
  options.avg_degree = 16.0;
  static std::map<std::int64_t, ugs::UncertainGraph> cache;
  auto it = cache.find(state.range(0));
  if (it == cache.end()) {
    it = cache
             .emplace(state.range(0),
                      ugs::GenerateChungLu(
                          options,
                          ugs::ProbabilityDistribution::TruncatedExponential(
                              12.5),
                          &g_rng))
             .first;
  }
  const ugs::UncertainGraph& g = it->second;
  ugs::SkipWorldSampler sampler(g);
  ugs::Rng rng(1);
  std::vector<char> present;
  for (auto _ : state) {
    sampler.Sample(&rng, &present);
    benchmark::DoNotOptimize(present.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_SkipSampleWorld)->Arg(1000)->Arg(4000);

void BM_BackboneBgi(benchmark::State& state) {
  const ugs::UncertainGraph& g =
      BenchGraph(static_cast<std::size_t>(state.range(0)), 16.0);
  ugs::BackboneOptions options;
  for (auto _ : state) {
    ugs::Rng rng(7);
    auto b = ugs::BuildBackbone(g, 0.32, options, &rng);
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_BackboneBgi)->Arg(1000)->Arg(4000);

void BM_GdbSweep(benchmark::State& state) {
  const ugs::UncertainGraph& g =
      BenchGraph(static_cast<std::size_t>(state.range(0)), 16.0);
  ugs::Rng rng(7);
  ugs::BackboneOptions options;
  auto backbone = ugs::BuildBackbone(g, 0.32, options, &rng);
  ugs::GdbOptions gdb;
  gdb.max_sweeps = 1;
  gdb.tolerance = 0.0;
  for (auto _ : state) {
    ugs::SparseState sparse_state(g, backbone.value());
    ugs::RunGdb(&sparse_state, gdb);
    benchmark::DoNotOptimize(sparse_state.TotalMass());
  }
}
BENCHMARK(BM_GdbSweep)->Arg(1000)->Arg(4000);

void BM_EmdIteration(benchmark::State& state) {
  const ugs::UncertainGraph& g =
      BenchGraph(static_cast<std::size_t>(state.range(0)), 16.0);
  ugs::Rng rng(7);
  ugs::BackboneOptions options;
  auto backbone = ugs::BuildBackbone(g, 0.32, options, &rng);
  ugs::EmdOptions emd;
  emd.max_iterations = 1;
  for (auto _ : state) {
    ugs::SparseState sparse_state(g, backbone.value());
    ugs::RunEmd(&sparse_state, emd);
    benchmark::DoNotOptimize(sparse_state.TotalMass());
  }
}
BENCHMARK(BM_EmdIteration)->Arg(1000)->Arg(4000);

void BM_LpAssign(benchmark::State& state) {
  const ugs::UncertainGraph& g =
      BenchGraph(static_cast<std::size_t>(state.range(0)), 16.0);
  ugs::Rng rng(7);
  ugs::BackboneOptions options;
  auto backbone = ugs::BuildBackbone(g, 0.32, options, &rng);
  for (auto _ : state) {
    auto p = ugs::SolveDegreeLp(g, backbone.value());
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(BM_LpAssign)->Arg(500)->Arg(1000);

void BM_NiSparsify(benchmark::State& state) {
  const ugs::UncertainGraph& g =
      BenchGraph(static_cast<std::size_t>(state.range(0)), 16.0);
  for (auto _ : state) {
    ugs::Rng rng(7);
    auto r = ugs::NiSparsify(g, 0.32, {}, &rng);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_NiSparsify)->Arg(1000);

void BM_IndexedHeapUpdate(benchmark::State& state) {
  const std::size_t n = 10000;
  ugs::IndexedMaxHeap heap(n);
  ugs::Rng rng(1);
  for (std::uint32_t i = 0; i < n; ++i) {
    heap.Push(i, rng.NextDouble());
  }
  for (auto _ : state) {
    auto key = static_cast<std::uint32_t>(rng.NextIndex(n));
    heap.Update(key, rng.NextDouble());
    benchmark::DoNotOptimize(heap.Top());
  }
}
BENCHMARK(BM_IndexedHeapUpdate);

void BM_PageRankWorld(benchmark::State& state) {
  const ugs::UncertainGraph& g = BenchGraph(2000, 16.0);
  ugs::Rng rng(1);
  std::vector<char> present;
  ugs::SampleWorld(g, &rng, &present);
  for (auto _ : state) {
    auto pr = ugs::PageRankOnWorld(g, present);
    benchmark::DoNotOptimize(pr.data());
  }
}
BENCHMARK(BM_PageRankWorld);

void BM_BfsWorld(benchmark::State& state) {
  const ugs::UncertainGraph& g = BenchGraph(2000, 16.0);
  ugs::Rng rng(1);
  std::vector<char> present;
  ugs::SampleWorld(g, &rng, &present);
  std::vector<int> dist;
  for (auto _ : state) {
    ugs::BfsOnWorld(g, present, 0, &dist);
    benchmark::DoNotOptimize(dist.data());
  }
}
BENCHMARK(BM_BfsWorld);

// Rows on the default Twitter stand-in (|V| = 2000, |E| = 49,571,
// E[p] = 0.156, ~7,900 edges present per world): the per-world layers a
// skip-sampled reliability or shortest-path request pays.

const ugs::UncertainGraph& TwitterStandIn() {
  static const ugs::UncertainGraph* graph =
      new ugs::UncertainGraph(ugs::MakeTwitterLike());
  return *graph;
}

/// Skip-sampler table construction: paid once per GraphSession.
void BM_TwitterSkipTables(benchmark::State& state) {
  const ugs::UncertainGraph& g = TwitterStandIn();
  for (auto _ : state) {
    ugs::SkipWorldSampler sampler(g);
    benchmark::DoNotOptimize(sampler.ExpectedDraws());
  }
}
BENCHMARK(BM_TwitterSkipTables)->Unit(benchmark::kMicrosecond);

/// A skip-sampled world's draws alone: the flags, no present-edge list.
void BM_TwitterSkipFlags(benchmark::State& state) {
  const ugs::UncertainGraph& g = TwitterStandIn();
  const ugs::SkipWorldSampler sampler(g);
  ugs::Rng rng(1);
  std::vector<char> present;
  for (auto _ : state) {
    sampler.Sample(&rng, &present);
    benchmark::DoNotOptimize(present.data());
  }
}
BENCHMARK(BM_TwitterSkipFlags)->Unit(benchmark::kMicrosecond);

/// One skip-sampled world, flags plus present-edge list.
void BM_TwitterSkipWorld(benchmark::State& state) {
  const ugs::UncertainGraph& g = TwitterStandIn();
  const ugs::SkipWorldSampler sampler(g);
  ugs::Rng rng(1);
  ugs::World world;
  for (auto _ : state) {
    sampler.Sample(&rng, &world);
    benchmark::DoNotOptimize(world.present_edges().data());
  }
}
BENCHMARK(BM_TwitterSkipWorld)->Unit(benchmark::kMicrosecond);

/// Present-list compaction alone: a popcount pass and a branch-free emit
/// pass over |E| flags. Rotates over 16 worlds, as a run meets a new
/// world every time; re-compacting one world would let the branch
/// predictor learn its flags.
void BM_TwitterCompactWorld(benchmark::State& state) {
  const ugs::UncertainGraph& g = TwitterStandIn();
  ugs::Rng rng(1);
  std::vector<ugs::World> worlds(16);
  for (ugs::World& world : worlds) ugs::SampleWorld(g, &rng, &world);
  std::size_t next = 0;
  for (auto _ : state) {
    ugs::World& world = worlds[next++ % worlds.size()];
    world.Compact();
    benchmark::DoNotOptimize(world.present_edges().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_TwitterCompactWorld)->Unit(benchmark::kMicrosecond);

/// The reliability kernel's per-world work: union-find over the present
/// edges of a skip-sampled world (16 in rotation, as above).
void BM_TwitterConnectWorld(benchmark::State& state) {
  const ugs::UncertainGraph& g = TwitterStandIn();
  const ugs::SkipWorldSampler sampler(g);
  ugs::Rng rng(1);
  std::vector<ugs::World> worlds(16);
  for (ugs::World& world : worlds) sampler.Sample(&rng, &world);
  ugs::UnionFind uf(g.num_vertices());
  std::size_t next = 0;
  for (auto _ : state) {
    ugs::ConnectWorld(g, worlds[next++ % worlds.size()], &uf);
    benchmark::DoNotOptimize(uf.num_components());
  }
}
BENCHMARK(BM_TwitterConnectWorld)->Unit(benchmark::kMicrosecond);

/// The shortest-path kernel's per-world work for 20 sources: compact the
/// world's adjacency once, then 20 BFS over it.
void BM_TwitterCompactedBfs20(benchmark::State& state) {
  const ugs::UncertainGraph& g = TwitterStandIn();
  ugs::Rng rng(1);
  ugs::World world;
  ugs::SampleWorld(g, &rng, &world);
  ugs::WorldAdjacency adjacency;
  std::vector<int> dist;
  for (auto _ : state) {
    adjacency.Build(g, world);
    for (ugs::VertexId source = 0; source < 20; ++source) {
      ugs::BfsOnWorld(adjacency, source * 97, &dist);
    }
    benchmark::DoNotOptimize(dist.data());
  }
}
BENCHMARK(BM_TwitterCompactedBfs20)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
