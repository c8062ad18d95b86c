#include "query/query.h"

#include <memory>
#include <utility>

#include "query/clustering.h"
#include "query/estimator_policy.h"
#include "query/exact.h"
#include "query/reliability.h"
#include "query/stratified.h"
#include "util/union_find.h"

namespace ugs {

const char* EstimatorName(Estimator estimator) {
  switch (estimator) {
    case Estimator::kAuto:
      return "auto";
    case Estimator::kSampled:
      return "sampled";
    case Estimator::kSkipSampler:
      return "skip";
    case Estimator::kStratified:
      return "stratified";
    case Estimator::kExact:
      return "exact";
    case Estimator::kDeterministic:
      return "deterministic";
  }
  return "unknown";
}

Result<Estimator> ParseEstimator(const std::string& name) {
  if (name == "auto") return Estimator::kAuto;
  if (name == "sampled") return Estimator::kSampled;
  if (name == "skip") return Estimator::kSkipSampler;
  if (name == "stratified") return Estimator::kStratified;
  if (name == "exact") return Estimator::kExact;
  if (name == "deterministic") return Estimator::kDeterministic;
  return Status::NotFound("unknown estimator '" + name + "'");
}

namespace {

std::vector<double> UnitMeans(const McSamples& samples) {
  std::vector<double> means(samples.num_units);
  for (std::size_t u = 0; u < samples.num_units; ++u) {
    means[u] = samples.UnitMean(u);
  }
  return means;
}

Status ValidatePairs(const std::string& query, const UncertainGraph& graph,
                     const std::vector<VertexPair>& pairs) {
  if (pairs.empty()) {
    return Status::InvalidArgument("query '" + query +
                                   "' needs at least one vertex pair");
  }
  const std::size_t n = graph.num_vertices();
  for (const VertexPair& pair : pairs) {
    if (pair.s >= n || pair.t >= n) {
      return Status::InvalidArgument(
          "pair (" + std::to_string(pair.s) + ", " + std::to_string(pair.t) +
          ") out of range for " + std::to_string(n) + " vertices");
    }
  }
  return Status::OK();
}

Status ValidateSamples(const QueryRequest& request) {
  if (request.num_samples <= 0) {
    return Status::InvalidArgument("num_samples must be positive, got " +
                                   std::to_string(request.num_samples));
  }
  if (request.estimator == Estimator::kStratified &&
      (request.num_pivot_edges < 0 || request.num_pivot_edges > 62)) {
    return Status::InvalidArgument("num_pivot_edges must be in [0, 62], got " +
                                   std::to_string(request.num_pivot_edges));
  }
  return Status::OK();
}

/// Stratification budget of a request.
StratifiedOptions StratifiedOptionsOf(const QueryRequest& request) {
  StratifiedOptions options;
  options.num_pivot_edges = request.num_pivot_edges;
  options.total_samples = request.num_samples;
  return options;
}

/// WorldQueryFactory for the s ~ t reachability indicator.
WorldQueryFactory ReachabilityFactory(const UncertainGraph& graph, VertexId s,
                                      VertexId t) {
  return [&graph, s, t]() -> WorldQuery {
    auto uf = std::make_shared<UnionFind>(graph.num_vertices());
    return [&graph, uf, s, t](const World& world) {
      ConnectWorld(graph, world, uf.get());
      return uf->Connected(s, t) ? 1.0 : 0.0;
    };
  };
}

/// WorldQueryFactory for d(s, t) * 1[s ~ t] (distance = true) or the bare
/// connectivity indicator (distance = false) -- the two halves of the
/// stratified conditioned-distance ratio estimator.
WorldQueryFactory DistanceFactory(const UncertainGraph& graph, VertexId s,
                                  VertexId t, bool distance) {
  return [&graph, s, t, distance]() -> WorldQuery {
    struct Scratch {
      WorldAdjacency adjacency;
      BfsScratch bfs;
    };
    auto scratch = std::make_shared<Scratch>();
    return [&graph, scratch, s, t, distance](const World& world) {
      scratch->adjacency.Build(graph, world);
      BfsOnWorld(scratch->adjacency, s, {&t, 1}, &scratch->bfs);
      int d = scratch->bfs.dist[t];
      if (d == kUnreachable) return 0.0;
      return distance ? static_cast<double>(d) : 1.0;
    };
  };
}

class ReliabilityQuery final : public Query {
 public:
  std::string name() const override { return "reliability"; }

  std::vector<Estimator> SupportedEstimators() const override {
    return {Estimator::kSampled, Estimator::kSkipSampler,
            Estimator::kStratified, Estimator::kExact};
  }

  Status Validate(const UncertainGraph& graph,
                  const QueryRequest& request) const override {
    UGS_RETURN_IF_ERROR(ValidatePairs(name(), graph, request.pairs));
    return ValidateSamples(request);
  }

  Result<QueryResult> Run(const UncertainGraph& graph,
                          const QueryRequest& request, Estimator estimator,
                          const SampleEngine& engine) const override {
    QueryResult result;
    Rng rng(request.seed);
    switch (estimator) {
      case Estimator::kSampled:
      case Estimator::kSkipSampler:
        result.samples = McReliability(graph, request.pairs,
                                       request.num_samples, &rng, engine);
        result.means = UnitMeans(result.samples);
        break;
      case Estimator::kStratified: {
        const StratifiedOptions options = StratifiedOptionsOf(request);
        result.means.reserve(request.pairs.size());
        for (const VertexPair& pair : request.pairs) {
          result.means.push_back(StratifiedEstimate(
              graph, ReachabilityFactory(graph, pair.s, pair.t), options,
              &rng, engine));
        }
        break;
      }
      case Estimator::kExact:
        result.means.reserve(request.pairs.size());
        // Enumeration chunks on the session's engine pool, so a session
        // with a dedicated pool isolates exact work too.
        for (const VertexPair& pair : request.pairs) {
          result.means.push_back(
              ExactReliability(graph, pair.s, pair.t, engine.pool()));
        }
        break;
      default:
        return Status::Internal("reliability: unreachable estimator");
    }
    return result;
  }
};

class ConnectivityQuery final : public Query {
 public:
  std::string name() const override { return "connectivity"; }

  std::vector<Estimator> SupportedEstimators() const override {
    return {Estimator::kSampled, Estimator::kSkipSampler,
            Estimator::kStratified, Estimator::kExact};
  }

  Status Validate(const UncertainGraph&,
                  const QueryRequest& request) const override {
    return ValidateSamples(request);
  }

  Result<QueryResult> Run(const UncertainGraph& graph,
                          const QueryRequest& request, Estimator estimator,
                          const SampleEngine& engine) const override {
    QueryResult result;
    result.has_scalar = true;
    Rng rng(request.seed);
    switch (estimator) {
      case Estimator::kSampled:
      case Estimator::kSkipSampler:
        result.scalar =
            EstimateConnectivity(graph, request.num_samples, &rng, engine);
        break;
      case Estimator::kStratified: {
        auto factory = [&graph]() -> WorldQuery {
          auto uf = std::make_shared<UnionFind>(graph.num_vertices());
          return [&graph, uf](const World& world) {
            ConnectWorld(graph, world, uf.get());
            return uf->num_components() == 1 ? 1.0 : 0.0;
          };
        };
        result.scalar = StratifiedEstimate(
            graph, factory, StratifiedOptionsOf(request), &rng, engine);
        break;
      }
      case Estimator::kExact:
        result.scalar = ExactConnectivityProbability(graph, engine.pool());
        break;
      default:
        return Status::Internal("connectivity: unreachable estimator");
    }
    return result;
  }
};

class ShortestPathQuery final : public Query {
 public:
  std::string name() const override { return "shortest-path"; }

  std::vector<Estimator> SupportedEstimators() const override {
    return {Estimator::kSampled, Estimator::kSkipSampler,
            Estimator::kStratified, Estimator::kExact};
  }

  Status Validate(const UncertainGraph& graph,
                  const QueryRequest& request) const override {
    UGS_RETURN_IF_ERROR(ValidatePairs(name(), graph, request.pairs));
    return ValidateSamples(request);
  }

  Result<QueryResult> Run(const UncertainGraph& graph,
                          const QueryRequest& request, Estimator estimator,
                          const SampleEngine& engine) const override {
    QueryResult result;
    Rng rng(request.seed);
    switch (estimator) {
      case Estimator::kSampled:
      case Estimator::kSkipSampler:
        result.samples = McShortestPath(graph, request.pairs,
                                        request.num_samples, &rng, engine);
        result.means = UnitMeans(result.samples);
        break;
      case Estimator::kStratified: {
        // Conditioned mean as a ratio of stratified estimates:
        // E[d | s ~ t] = E[d * 1(s ~ t)] / Pr[s ~ t].
        const StratifiedOptions options = StratifiedOptionsOf(request);
        result.means.reserve(request.pairs.size());
        for (const VertexPair& pair : request.pairs) {
          double weighted = StratifiedEstimate(
              graph, DistanceFactory(graph, pair.s, pair.t, true), options,
              &rng, engine);
          double connected = StratifiedEstimate(
              graph, DistanceFactory(graph, pair.s, pair.t, false), options,
              &rng, engine);
          result.means.push_back(connected > 0.0 ? weighted / connected
                                                 : 0.0);
        }
        break;
      }
      case Estimator::kExact:
        result.means.reserve(request.pairs.size());
        for (const VertexPair& pair : request.pairs) {
          result.means.push_back(ExactExpectedDistance(
              graph, pair.s, pair.t, nullptr, engine.pool()));
        }
        break;
      default:
        return Status::Internal("shortest-path: unreachable estimator");
    }
    return result;
  }
};

class PageRankQuery final : public Query {
 public:
  std::string name() const override { return "pagerank"; }

  std::vector<Estimator> SupportedEstimators() const override {
    return {Estimator::kSampled, Estimator::kSkipSampler};
  }

  Status Validate(const UncertainGraph& graph,
                  const QueryRequest& request) const override {
    if (graph.num_vertices() == 0) {
      return Status::InvalidArgument("pagerank needs a non-empty graph");
    }
    return ValidateSamples(request);
  }

  Result<QueryResult> Run(const UncertainGraph& graph,
                          const QueryRequest& request, Estimator,
                          const SampleEngine& engine) const override {
    QueryResult result;
    Rng rng(request.seed);
    result.samples = McPageRank(graph, request.num_samples, &rng,
                                request.pagerank, engine);
    result.means = UnitMeans(result.samples);
    return result;
  }
};

class ClusteringQuery final : public Query {
 public:
  std::string name() const override { return "clustering"; }

  std::vector<Estimator> SupportedEstimators() const override {
    return {Estimator::kSampled, Estimator::kSkipSampler};
  }

  Status Validate(const UncertainGraph&,
                  const QueryRequest& request) const override {
    return ValidateSamples(request);
  }

  Result<QueryResult> Run(const UncertainGraph& graph,
                          const QueryRequest& request, Estimator,
                          const SampleEngine& engine) const override {
    QueryResult result;
    Rng rng(request.seed);
    result.samples =
        McClusteringCoefficient(graph, request.num_samples, &rng, engine);
    result.means = UnitMeans(result.samples);
    return result;
  }
};

class KnnQuery final : public Query {
 public:
  std::string name() const override { return "knn"; }

  std::vector<Estimator> SupportedEstimators() const override {
    return {Estimator::kDeterministic};
  }

  Status Validate(const UncertainGraph& graph,
                  const QueryRequest& request) const override {
    if (request.sources.empty()) {
      return Status::InvalidArgument("knn needs at least one source vertex");
    }
    for (VertexId s : request.sources) {
      if (s >= graph.num_vertices()) {
        return Status::InvalidArgument(
            "source " + std::to_string(s) + " out of range for " +
            std::to_string(graph.num_vertices()) + " vertices");
      }
    }
    if (request.k == 0) {
      return Status::InvalidArgument("knn needs k > 0");
    }
    return Status::OK();
  }

  Result<QueryResult> Run(const UncertainGraph& graph,
                          const QueryRequest& request, Estimator,
                          const SampleEngine& engine) const override {
    QueryResult result;
    result.knn = MostProbableKnnBatch(graph, request.sources, request.k,
                                      engine.pool());
    return result;
  }
};

class MostProbablePathQuery final : public Query {
 public:
  std::string name() const override { return "most-probable-path"; }

  std::vector<Estimator> SupportedEstimators() const override {
    return {Estimator::kDeterministic};
  }

  Status Validate(const UncertainGraph& graph,
                  const QueryRequest& request) const override {
    return ValidatePairs(name(), graph, request.pairs);
  }

  Result<QueryResult> Run(const UncertainGraph& graph,
                          const QueryRequest& request, Estimator,
                          const SampleEngine& engine) const override {
    QueryResult result;
    result.paths.resize(request.pairs.size());
    engine.pool().ParallelFor(request.pairs.size(), [&](std::size_t i) {
      result.paths[i] = FindMostProbablePath(graph, request.pairs[i].s,
                                             request.pairs[i].t);
    });
    result.means.reserve(result.paths.size());
    for (const MostProbablePath& path : result.paths) {
      result.means.push_back(path.probability);
    }
    return result;
  }
};

}  // namespace

Result<std::unique_ptr<Query>> MakeQueryByName(const std::string& name) {
  // Short aliases matching the paper's figure labels and the legacy
  // ugs_query spellings.
  if (name == "cc") return MakeQueryByName("clustering");
  if (name == "sp") return MakeQueryByName("shortest-path");
  if (name == "mpp") return MakeQueryByName("most-probable-path");

  if (name == "reliability") return {std::make_unique<ReliabilityQuery>()};
  if (name == "connectivity") return {std::make_unique<ConnectivityQuery>()};
  if (name == "shortest-path") {
    return {std::make_unique<ShortestPathQuery>()};
  }
  if (name == "pagerank") return {std::make_unique<PageRankQuery>()};
  if (name == "clustering") return {std::make_unique<ClusteringQuery>()};
  if (name == "knn") return {std::make_unique<KnnQuery>()};
  if (name == "most-probable-path") {
    return {std::make_unique<MostProbablePathQuery>()};
  }
  return Status::NotFound("unknown query '" + name + "'");
}

std::vector<std::string> KnownQueryNames() {
  return {"reliability", "connectivity", "shortest-path",      "pagerank",
          "clustering",  "knn",          "most-probable-path"};
}

}  // namespace ugs
