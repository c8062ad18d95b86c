#include "query/sample_engine.h"

#include <algorithm>

#include "util/check.h"

namespace ugs {

SampleEngine::SampleEngine(SampleEngineOptions options)
    : options_(options) {
  UGS_CHECK(options_.batch_size > 0);
  if (options_.num_threads > 0) {
    owned_pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
}

SampleEngine::SampleEngine(SampleEngineOptions options,
                           const UncertainGraph& graph,
                           const SampleEngine* pool_owner)
    : options_(options),
      pool_owner_(pool_owner),
      bound_(std::make_unique<BoundTables>(graph)) {
  UGS_CHECK(options_.batch_size > 0);
  if (pool_owner_ == nullptr && options_.num_threads > 0) {
    owned_pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
}

void SampleEngine::Tables::Build(const UncertainGraph& graph,
                                 bool use_skip) {
  if (use_skip) {
    skip.emplace(graph);
  } else {
    plain.emplace(graph);
  }
}

void SampleEngine::Tables::Sample(Rng* rng, World* world) const {
  if (skip.has_value()) {
    skip->Sample(rng, world);
  } else {
    plain->Sample(rng, world);
  }
}

ThreadPool& SampleEngine::pool() const {
  if (pool_owner_ != nullptr) return pool_owner_->pool();
  return owned_pool_ != nullptr ? *owned_pool_ : ThreadPool::Default();
}

const SampleEngine& SampleEngine::Default() {
  static const SampleEngine* engine = new SampleEngine();
  return *engine;
}

Rng SampleEngine::SampleRng(std::uint64_t base, std::uint64_t index) {
  return SplitRng(base, index);
}

McSamples SampleEngine::Run(const UncertainGraph& graph,
                            std::size_t num_units, int num_samples,
                            Rng* rng, bool track_valid,
                            const WorldEvalFactory& factory) const {
  UGS_CHECK(num_samples > 0);
  if (options_.worlds_sampled != nullptr) {
    options_.worlds_sampled->Add(static_cast<std::uint64_t>(num_samples));
  }
  McSamples out;
  out.num_units = num_units;
  out.num_samples = static_cast<std::size_t>(num_samples);
  out.values.assign(out.num_units * out.num_samples, 0.0);
  if (track_valid) out.valid.assign(out.num_units * out.num_samples, 0);

  const std::uint64_t base = rng->Next64();
  const std::size_t batch = static_cast<std::size_t>(options_.batch_size);
  const std::size_t total = out.num_samples;
  const std::size_t num_batches = (total + batch - 1) / batch;

  Tables run_tables;
  const Tables* tables = &run_tables;
  if (bound_ != nullptr && bound_->graph == &graph) {
    std::call_once(bound_->once, [this] {
      bound_->tables.Build(*bound_->graph, options_.use_skip_sampler);
    });
    tables = &bound_->tables;
  } else {
    run_tables.Build(graph, options_.use_skip_sampler);
  }

  double* values = out.values.data();
  char* valid = track_valid ? out.valid.data() : nullptr;
  pool().ParallelFor(num_batches, [&](std::size_t b) {
    WorldEval eval = factory();
    World world;
    const std::size_t begin = b * batch;
    const std::size_t end = std::min(begin + batch, total);
    for (std::size_t s = begin; s < end; ++s) {
      Rng sample_rng = SampleRng(base, s);
      tables->Sample(&sample_rng, &world);
      eval(world, values + s * num_units,
           valid != nullptr ? valid + s * num_units : nullptr);
    }
  });
  return out;
}

double SampleEngine::RunMean(const UncertainGraph& graph, int num_samples,
                             Rng* rng,
                             const WorldStatFactory& factory) const {
  McSamples samples =
      Run(graph, 1, num_samples, rng, /*track_valid=*/false,
          [&factory]() -> WorldEval {
            WorldStat stat = factory();
            return [stat = std::move(stat)](World& world, double* row, char*) {
              row[0] = stat(world);
            };
          });
  // Fixed summation order keeps the mean bit-identical across thread
  // counts.
  double sum = 0.0;
  for (double v : samples.values) sum += v;
  return sum / static_cast<double>(samples.num_samples);
}

}  // namespace ugs
