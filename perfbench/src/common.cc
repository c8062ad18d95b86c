#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <utility>

#include "bench.h"
#include "gen/datasets.h"

namespace perfbench {

ugs::UncertainGraph MakeDataset() { return ugs::MakeTwitterLike(); }

std::vector<ugs::VertexPair> MakePairs(InputRng* rng, std::size_t n,
                                       std::size_t count) {
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  std::vector<ugs::VertexPair> pairs;
  while (pairs.size() < count) {
    const auto s = static_cast<std::uint32_t>(rng->Below(n));
    const auto t = static_cast<std::uint32_t>(rng->Below(n));
    if (s == t || !seen.insert({s, t}).second) continue;
    pairs.push_back({s, t});
  }
  return pairs;
}

std::vector<OracleEdge> ToOracle(const ugs::UncertainGraph& graph) {
  std::vector<OracleEdge> out;
  out.reserve(graph.num_edges());
  for (const ugs::UncertainEdge& e : graph.edges()) out.push_back({e.u, e.v, e.p});
  return out;
}

TinyGraph MakeTiny(InputRng* rng) {
  TinyGraph tiny;
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  // A spanning path first keeps every pair connectable, then random chords.
  for (std::uint32_t v = 1; v < tiny.n; ++v) {
    const auto u = static_cast<std::uint32_t>(rng->Below(v));
    seen.insert({u, v});
    tiny.edges.push_back({u, v, 0.2 + 0.7 * rng->Unit()});
  }
  while (tiny.edges.size() < 18) {
    auto u = static_cast<std::uint32_t>(rng->Below(tiny.n));
    auto v = static_cast<std::uint32_t>(rng->Below(tiny.n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (!seen.insert({u, v}).second) continue;
    tiny.edges.push_back({u, v, 0.2 + 0.7 * rng->Unit()});
  }
  tiny.pairs = MakePairs(rng, tiny.n, 3);
  return tiny;
}

ugs::QueryRequest Reliability(const std::vector<ugs::VertexPair>& pairs,
                              int samples, std::uint64_t seed) {
  ugs::QueryRequest request;
  request.query = "reliability";
  request.pairs = pairs;
  request.num_samples = samples;
  request.seed = seed;
  return request;
}

EdgeListModel::EdgeListModel(const ugs::UncertainGraph& g, std::uint64_t seed)
    : n_(g.num_vertices()), edges_(g.edges().begin(), g.edges().end()), rng_(seed) {
  for (const ugs::UncertainEdge& e : edges_) keys_.insert(Key(e.u, e.v));
}

std::vector<ugs::EdgeUpdate> EdgeListModel::NextBatch() {
  std::vector<ugs::EdgeUpdate> batch;
  for (;;) {  // Insert a pair that is not an edge yet.
    auto u = static_cast<std::uint32_t>(rng_.Below(n_));
    auto v = static_cast<std::uint32_t>(rng_.Below(n_));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (keys_.count(Key(u, v))) continue;
    const double p = 0.05 + 0.9 * rng_.Unit();
    batch.push_back({ugs::EdgeUpdateOp::kInsert, u, v, p});
    edges_.push_back({u, v, p});
    keys_.insert(Key(u, v));
    break;
  }
  const std::size_t victim = rng_.Below(edges_.size());
  const ugs::UncertainEdge gone = edges_[victim];
  batch.push_back({ugs::EdgeUpdateOp::kDelete, gone.u, gone.v, 0.0});
  edges_.erase(edges_.begin() + static_cast<std::ptrdiff_t>(victim));
  keys_.erase(Key(gone.u, gone.v));
  while (batch.size() < kUpdateBatch) {
    const std::size_t at = rng_.Below(edges_.size());
    const double p = 0.05 + 0.9 * rng_.Unit();
    // Named with the endpoints swapped: (v,u) is the same undirected edge.
    batch.push_back({ugs::EdgeUpdateOp::kReweight, edges_[at].v, edges_[at].u, p});
    edges_[at].p = p;
  }
  return batch;
}

ugs::UncertainGraph EdgeListModel::Build() const {
  return ugs::UncertainGraph::FromEdges(n_, edges_);
}

std::uint64_t EdgeListModel::Key(std::uint32_t u, std::uint32_t v) {
  return (static_cast<std::uint64_t>(std::min(u, v)) << 32) | std::max(u, v);
}

bool MeansMatchMatrix(const ugs::QueryResult& result) {
  const ugs::McSamples& m = result.samples;
  if (result.means.size() != m.num_units) return false;
  for (std::size_t u = 0; u < m.num_units; ++u) {
    double sum = 0.0;
    std::size_t valid = 0;
    for (std::size_t s = 0; s < m.num_samples; ++s) {
      if (!m.IsValid(s, u)) continue;
      sum += m.At(s, u);
      ++valid;
    }
    const double mean = valid > 0 ? sum / static_cast<double>(valid) : 0.0;
    if (std::abs(mean - result.means[u]) > 1e-12) return false;
  }
  return true;
}

void CheckTinyOracle(Context* ctx, const TinyGraph& tiny, const RunFn& run,
                     const std::string& where) {
  constexpr double kZ = 5.0;
  constexpr int kSampled = 4000;
  std::vector<OracleEdge> edges;
  for (const ugs::UncertainEdge& e : tiny.edges) edges.push_back({e.u, e.v, e.p});
  std::uint64_t seed = 7000;
  for (const ugs::VertexPair& pair : tiny.pairs) {
    const PairMoments exact = ExactPair(tiny.n, edges, pair.s, pair.t);
    const std::string input = where + " tiny pair (" + std::to_string(pair.s) +
                              "," + std::to_string(pair.t) + ")";
    for (const char* query : {"reliability", "shortest-path"}) {
      const bool reliability = std::string(query) == "reliability";
      const double truth = reliability ? exact.reliability : exact.mean_distance;
      for (bool sampled : {false, true}) {
        ugs::QueryRequest request;
        request.query = query;
        request.pairs = {pair};
        request.estimator = sampled ? ugs::Estimator::kSampled : ugs::Estimator::kExact;
        request.num_samples = sampled ? kSampled : 1;
        request.seed = ++seed;
        ctx->ledger.Attempt("oracle");
        ugs::Result<ugs::QueryResult> r = run(request);
        if (!r.ok()) {
          ctx->ledger.Fail("oracle", input + ": " + r.status().ToString());
          continue;
        }
        if (r->means.size() != 1) {
          ctx->ledger.Check(false, std::string(query) + " reply has one mean", input);
          continue;
        }
        const double got = r->means[0];
        if (!sampled) {
          ctx->ledger.Check(std::abs(got - truth) <= 1e-12,
                            std::string("exact ") + query + " matches enumeration (" +
                                Num(got) + " vs " + Num(truth) + ")",
                            input);
          continue;
        }
        double n_valid = 0.0;
        for (std::size_t s = 0; s < r->samples.num_samples; ++s) {
          n_valid += r->samples.IsValid(s, 0) ? 1.0 : 0.0;
        }
        const double var = reliability ? truth * (1.0 - truth) : exact.var_distance;
        const double tolerance =
            n_valid > 0.0 ? kZ * std::sqrt(var / n_valid) + 1e-9 : 0.0;
        ctx->ledger.Check(n_valid > 0.0 && std::abs(got - truth) <= tolerance,
                          std::string("sampled ") + query + " within 5 sigma of " +
                              "enumeration (" + Num(got) + " vs " + Num(truth) + ")",
                          input);
      }
    }
  }
}

void ReportEndToEnd(Context* ctx, const EndToEnd& e2e) {
  constexpr int kSlices = 10;
  const double slice_s = ctx->opt.seconds / kSlices;
  std::vector<double> primary[kSlices], side[kSlices], all_primary;
  auto slice = [&](const Sample& s) {
    return std::clamp(static_cast<int>(s.end_s / slice_s), 0, kSlices - 1);
  };
  for (const Sample& s : e2e.primary) {
    primary[slice(s)].push_back(s.us);
    all_primary.push_back(s.us);
  }
  for (const Sample& s : e2e.side) side[slice(s)].push_back(s.us);
  std::vector<double> p50, p90, rate, side_p50;
  for (int k = 0; k < kSlices; ++k) {
    if (!primary[k].empty()) {
      double sum_us = 0.0;
      for (double us : primary[k]) sum_us += us;
      rate.push_back(e2e.loops * 1e6 * static_cast<double>(primary[k].size()) / sum_us);
      p50.push_back(Median(primary[k]));
      p90.push_back(Quantile(primary[k], 0.9));
    }
    if (!side[k].empty()) side_p50.push_back(Median(side[k]));
  }
  if (p50.size() < kSlices || side_p50.size() < kSlices || e2e.setup_s.empty()) {
    ctx->ledger.Check(false, "every stream completed operations in every slice",
                      "workload " + ctx->opt.workload);
    return;
  }
  // A traced run's result line carries the per-layer metrics; its
  // end-to-end figures (slowed by tracing) go to an info line instead.
  Metrics traced;
  Metrics& m = ctx->opt.trace ? traced : ctx->metrics;
  m["setup_s"] = {Median(e2e.setup_s), "s"};
  m["peak_rss_mb"] = {e2e.peak_rss_kib / 1024.0, "MiB"};
  m["throughput_rps"] = {Median(rate), "1/s"};
  m["latency_p50_us"] = {Median(p50), "us"};
  m["side_p50_us"] = {Median(side_p50), "us"};
  // The tail is reported, not gated: it follows the host's steal episodes.
  char line[256];
  std::snprintf(line, sizeof(line),
                "samples: primary=%zu side=%zu setups=%zu; primary tail: median "
                "slice p90=%.1f us, whole-window p99=%.1f us",
                all_primary.size(), e2e.side.size(), e2e.setup_s.size(), Median(p90),
                Quantile(all_primary, 0.99));
  ctx->notes.push_back(line);
  if (ctx->opt.trace) {
    std::string json = "traced-e2e: {";
    for (const auto& [name, metric] : traced) {
      json += (json.back() == '{' ? "\"" : ", \"") + name + "\": " + Num(metric.value);
    }
    ctx->notes.push_back(json + "}");
  }
}

}  // namespace perfbench
