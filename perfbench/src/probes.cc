// Layer probes for traced runs: spans around calls into each layer's
// public functions, on the workload's own graph and request shape, then a
// served probe against a fresh two-shard deployment behind a router. Every
// per-layer metric is derived from these spans or read from the daemons'
// stats and /metrics.
#include <deque>
#include <filesystem>
#include <memory>

#include "bench.h"
#include "gen/datasets.h"
#include "graph/csr_format.h"
#include "query/clustering.h"
#include "query/estimator_policy.h"
#include "query/graph_session.h"
#include "query/pagerank.h"
#include "query/reliability.h"
#include "query/sample_engine.h"
#include "query/skip_sampler.h"
#include "query/world_sampler.h"
#include "service/result_cache.h"
#include "service/session_registry.h"
#include "service/wire.h"
#include "util/random.h"

namespace perfbench {
namespace {

constexpr std::size_t kProbeCacheBytes = 256 * 1024;
constexpr int kProbeMisses = 60;
constexpr int kProbeHits = 2000;
constexpr std::size_t kProbeHitSet = 16;
constexpr int kProbeUpdates = 20;

/// Span names must outlive the tracer; dynamic ones are kept here.
const char* Intern(const std::string& name) {
  static std::deque<std::string> names;
  names.push_back(name);
  return names.back().c_str();
}

/// `n` calls, each in its own span.
template <class F>
void Each(Tracer* tr, const char* name, int n, F&& f) {
  for (int i = 0; i < n; ++i) {
    tr->BeginOp();
    Tracer::Scope span(tr, name);
    f(i);
  }
}

/// `batches` spans of `per` calls each, for calls near the clock's cost.
template <class F>
void Batched(Tracer* tr, const char* name, int batches, int per, F&& f) {
  for (int b = 0; b < batches; ++b) {
    tr->BeginOp();
    Tracer::Scope span(tr, name);
    for (int i = 0; i < per; ++i) f(i);
  }
}

const char* const kStages[] = {"decode", "cache_lookup", "queue_wait",
                               "execute", "encode", "write"};
const char* const kRouterStages[] = {"decode", "queue_wait", "execute", "write"};

/// Mean time (us) of `family`'s series matching `label` over one phase:
/// /metrics after minus before.
double PhaseMeanUs(const std::string& before, const std::string& after,
                   const char* family, const std::string& label) {
  return PromMeanUs(Diff(ParsePromHistogram(after, family, label),
                         ParsePromHistogram(before, family, label)));
}

double StageMeanUs(const std::string& before, const std::string& after,
                   const char* stage) {
  return PhaseMeanUs(before, after, "ugs_request_stage_seconds",
                     std::string("stage=\"") + stage + "\"");
}

struct RoundTripTimes {
  double median_us = 0.0;
  double mean_us = 0.0;
};

/// Closed-loop round trips of `requests` (cycled) on `graph`. Counts each
/// as a "probe" operation.
RoundTripTimes RoundTrips(Context* ctx, ugs::Client* client, const std::string& graph,
                          const std::vector<ugs::QueryRequest>& requests, int n,
                          const char* span_name) {
  std::vector<double> rtt;
  Tracer* tr = &ctx->tracer;
  for (int i = 0; i < n; ++i) {
    tr->BeginOp();
    const std::int64_t t0 = NowNs();
    ugs::Result<ugs::QueryResult> r = [&] {
      Tracer::Scope span(tr, span_name);
      return client->Query(graph, requests[static_cast<std::size_t>(i) % requests.size()]);
    }();
    ctx->ledger.Attempt("probe");
    if (!r.ok()) {
      ctx->ledger.Fail("probe", std::string(span_name) + ": " + r.status().ToString());
      continue;
    }
    rtt.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
  }
  if (rtt.empty()) return {};
  double sum = 0.0;
  for (double v : rtt) sum += v;
  return {Median(rtt), sum / static_cast<double>(rtt.size())};
}

/// Records the owner's mean stage times over one phase as
/// server.stage.<stage>_us.<suffix>, and the client's share of the round
/// trip as the mean RTT minus their sum (means add; medians do not).
void ServerStages(Context* ctx, const std::string& before, const std::string& after,
                  const RoundTripTimes& rtt, const std::string& suffix) {
  double stage_sum = 0.0;
  for (const std::string stage : kStages) {
    // A cache hit replies with the stored frame: it has no execute or
    // encode stage to report.
    if (suffix == "hit" && (stage == "execute" || stage == "encode")) continue;
    const double us = StageMeanUs(before, after, stage.c_str());
    ctx->metrics["server.stage." + stage + "_us." + suffix] = {us, "us"};
    stage_sum += us;
  }
  ctx->metrics["transport.client_overhead_us." + suffix] = {rtt.mean_us - stage_sum, "us"};
}

void ServedProbe(Context* ctx, const std::string& dir,
                 const ugs::UncertainGraph& g, const ugs::QueryRequest& shape,
                 InputRng* rng) {
  Metrics& m = ctx->metrics;
  Ledger& l = ctx->ledger;
  std::filesystem::copy_file(dir + "/g.ugsc", dir + "/b.ugsc",
                             std::filesystem::copy_options::overwrite_existing);
  Deployment d;
  if (!l.Check(d.Start(*ctx, dir, 1, kProbeCacheBytes, 1, "probe"),
               "probe deployment starts", dir)) {
    return;
  }
  auto via_router = Connect(d.router->port());
  if (!l.Check(via_router.ok(), "probe connects to the router", dir)) return;
  auto with_seed = [&](std::uint64_t seed) {
    ugs::QueryRequest r = shape;
    r.seed = seed;
    return r;
  };

  // One routed request reveals the shard that owns g (the one caching it).
  RoundTrips(ctx, &*via_router, "g", {with_seed(rng->Next())}, 1, "probe.client.Query.owner");
  int owner = -1;
  for (std::size_t s = 0; s < d.shards.size(); ++s) {
    if (JsonNumber(StatsOf(d.shards[s]->port()), {"cache", "entries"}) > 0.0) {
      owner = d.shards[s]->port();
    }
  }
  auto direct = Connect(owner);
  if (!l.Check(owner > 0 && direct.ok(), "probe finds g's owning shard", dir)) return;

  // Misses straight to the owner: distinct seeds.
  std::vector<ugs::QueryRequest> misses;
  for (int i = 0; i < kProbeMisses; ++i) misses.push_back(with_seed(rng->Next()));
  std::string before = MetricsOf(owner);
  const RoundTripTimes miss_rtt =
      RoundTrips(ctx, &*direct, "g", misses, kProbeMisses, "probe.client.Query.miss");
  ServerStages(ctx, before, MetricsOf(owner), miss_rtt, "miss");

  // A warmed hit set, then hits direct and through the router.
  std::vector<ugs::QueryRequest> hits;
  for (std::size_t i = 0; i < kProbeHitSet; ++i) hits.push_back(with_seed(rng->Next()));
  RoundTrips(ctx, &*via_router, "g", hits, kProbeHitSet, "probe.client.Query.warm");
  before = MetricsOf(owner);
  const RoundTripTimes direct_rtt =
      RoundTrips(ctx, &*direct, "g", hits, kProbeHits, "probe.client.Query.hit");
  ServerStages(ctx, before, MetricsOf(owner), direct_rtt, "hit");

  before = MetricsOf(d.router->port());
  const RoundTripTimes routed_rtt =
      RoundTrips(ctx, &*via_router, "g", hits, kProbeHits, "probe.client.Query.routed_hit");
  const std::string after = MetricsOf(d.router->port());
  m["router.hop_us"] = {routed_rtt.median_us - direct_rtt.median_us, "us"};
  for (const char* stage : kRouterStages) {
    m[std::string("router.stage.") + stage + "_us"] = {StageMeanUs(before, after, stage), "us"};
  }
  std::string shard_label = std::to_string(owner);  // The label ends ":<port>".
  shard_label.insert(0, 1, ':');
  shard_label.push_back('"');
  m["router.forward_us"] = {
      PhaseMeanUs(before, after, "ugs_shard_forward_seconds", shard_label), "us"};

  // A cached entry on b, then update batches through the router: the first
  // bump invalidates it.
  RoundTrips(ctx, &*via_router, "b", {with_seed(rng->Next())}, 1, "probe.client.Query.b");
  EdgeListModel model(g, rng->Next());
  std::vector<double> update_us;
  for (int i = 0; i < kProbeUpdates; ++i) {
    const std::vector<ugs::EdgeUpdate> batch = model.NextBatch();
    ctx->tracer.BeginOp();
    const std::int64_t t0 = NowNs();
    ugs::Result<ugs::WireUpdateReply> ack = [&] {
      Tracer::Scope span(&ctx->tracer, "probe.client.Update");
      return via_router->Update("b", batch);
    }();
    l.Attempt("probe");
    if (!ack.ok()) {
      l.Fail("probe", "update on b: " + ack.status().ToString());
      continue;
    }
    update_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    l.Check(ack->version == static_cast<std::uint64_t>(i) + 2,
            "probe update acks version + 1", "graph b batch " + std::to_string(i));
  }
  m["router.update_us"] = {update_us.empty() ? 0.0 : Median(update_us), "us"};

  double hits_n = 0, misses_n = 0, evictions = 0, invalidations = 0, worlds = 0;
  for (const auto& shard : d.shards) {
    const std::string stats = StatsOf(shard->port());
    hits_n += JsonNumber(stats, {"cache", "hits"});
    misses_n += JsonNumber(stats, {"cache", "misses"});
    evictions += JsonNumber(stats, {"cache", "evictions"});
    invalidations += JsonNumber(stats, {"cache", "invalidations"});
    worlds += JsonNumber(stats, {"telemetry", "worlds_sampled"});
  }
  m["result_cache.hits"] = {hits_n, "count"};
  m["result_cache.misses"] = {misses_n, "count"};
  m["result_cache.evictions"] = {evictions, "count"};
  m["result_cache.invalidations"] = {invalidations, "count"};
  m["engine.worlds"] = {worlds, "count"};
  l.Check(d.Stop(), "probe deployment exits 0 on SIGTERM", dir);
}

}  // namespace

void RunLayerProbes(Context* ctx, const ugs::UncertainGraph& g,
                    const ugs::QueryRequest& request) {
  Tracer* tr = &ctx->tracer;
  Ledger& l = ctx->ledger;
  Metrics& m = ctx->metrics;
  const std::string dir = ctx->opt.work_dir + "/probe";
  std::filesystem::create_directories(dir);
  InputRng rng(ctx->opt.seed ^ 0x70726f6265ULL);

  // gen, graph.
  Each(tr, "probe.gen.MakeTwitterLike", 3, [&](int) { MakeDataset(); });
  bool packed = true;
  Each(tr, "probe.graph.WriteCsrGraph", 5, [&](int) { packed = Pack(g, dir, "g") && packed; });
  l.Check(packed, "probe packs g", dir);
  bool opened = true;
  Each(tr, "probe.graph.MappedGraph.Open", 5,
       [&](int) { opened = ugs::MappedGraph::Open(dir + "/g.ugsc").ok() && opened; });
  l.Check(opened, "probe maps g", dir);
  {
    ugs::UncertainGraph owned = g;
    EdgeListModel model(g, rng.Next());
    std::vector<std::vector<ugs::EdgeUpdate>> batches;
    for (int i = 0; i < 20; ++i) batches.push_back(model.NextBatch());
    bool applied = true;
    Each(tr, "probe.graph.ApplyUpdates", 20, [&](int i) {
      applied = owned.ApplyUpdates(batches[static_cast<std::size_t>(i)]).ok() && applied;
    });
    const ugs::UncertainGraph expected = model.Build();
    bool same = applied && owned.num_edges() == expected.num_edges();
    for (std::size_t e = 0; same && e < owned.num_edges(); ++e) {
      const ugs::UncertainEdge &x = owned.edges()[e], &y = expected.edges()[e];
      same = x.u == y.u && x.v == y.v && x.p == y.p;
    }
    l.Check(same, "ApplyUpdates equals the edge-list model", "20 batches on g");
  }

  // sparsify.
  const SweepResult sweep = RunSweep(ctx, g, 1, 1, rng.Next());
  m["sparsify.backbone_ms"] = {sweep.backbone_ms, "ms"};
  m["sparsify.gdb_ms"] = {sweep.gdb_ms, "ms"};
  m["sparsify.gdb_sweeps"] = {static_cast<double>(sweep.gdb_sweeps), "count"};
  m["sparsify.emd_ms"] = {sweep.emd_ms, "ms"};
  m["sparsify.emd_iterations"] = {static_cast<double>(sweep.emd_iterations), "count"};
  m["sparsify.emd_swaps"] = {static_cast<double>(sweep.emd_swaps), "count"};
  if (!l.Check(sweep.gdb_by_alpha.size() == std::size(kSweepAlphas),
               "the sweep yields G' at every alpha", "probe sweep")) {
    return;
  }

  // query: world generation.
  const ugs::UncertainGraph& gp = sweep.gdb_by_alpha[1];
  ugs::Rng world_rng(rng.Next());
  std::vector<char> present;
  Each(tr, "probe.query.SampleWorld.G", 400, [&](int) { ugs::SampleWorld(g, &world_rng, &present); });
  Each(tr, "probe.query.SampleWorld.Gp", 400, [&](int) { ugs::SampleWorld(gp, &world_rng, &present); });
  const ugs::SkipWorldSampler skip(g);
  Each(tr, "probe.query.SkipWorldSampler.G", 400, [&](int) { skip.Sample(&world_rng, &present); });
  m["query.skip_expected_draws.G"] = {skip.ExpectedDraws(), "count"};

  // query: kernels, per world, on one thread.
  ugs::SampleEngineOptions one_thread;
  one_thread.num_threads = 1;
  const ugs::SampleEngine engine(one_thread);
  struct Target {
    const char* suffix;
    const ugs::UncertainGraph* graph;
    bool ladder_only;
  };
  const Target targets[] = {{"G", &g, false},
                            {"Gp8", &sweep.gdb_by_alpha[0], true},
                            {"Gp", &gp, false},
                            {"Gp32", &sweep.gdb_by_alpha[2], true}};
  for (const Target& t : targets) {
    struct Kernel {
      const char* name;
      int worlds;
      std::function<void(ugs::Rng*, int)> run;
    };
    std::vector<Kernel> kernels = {
        {"reliability", 200,
         [&](ugs::Rng* r, int n) { ugs::McReliability(*t.graph, request.pairs, n, r, engine); }},
        {"pagerank", 10,
         [&](ugs::Rng* r, int n) { ugs::McPageRank(*t.graph, n, r, {}, engine); }}};
    if (!t.ladder_only) {
      kernels.push_back({"shortest_path", 40, [&](ugs::Rng* r, int n) {
                           ugs::McShortestPath(*t.graph, request.pairs, n, r, engine);
                         }});
      kernels.push_back({"clustering", 20, [&](ugs::Rng* r, int n) {
                           ugs::McClusteringCoefficient(*t.graph, n, r, engine);
                         }});
    }
    for (const Kernel& k : kernels) {
      const char* span = Intern(std::string("probe.kernel.") + k.name + "." + t.suffix);
      std::vector<double> per_world;
      Each(tr, span, 3, [&](int) {
        ugs::Rng r(world_rng.Next64());
        const std::int64_t t0 = NowNs();
        k.run(&r, k.worlds);
        per_world.push_back(static_cast<double>(NowNs() - t0) * 1e-3 / k.worlds);
      });
      m[std::string("query.") + k.name + "_us_per_world." + t.suffix] = {Median(per_world), "us"};
    }
  }

  // query: policy and session overhead.
  auto query = ugs::MakeQueryByName(request.query);
  const std::vector<ugs::Estimator> supported = (*query)->SupportedEstimators();
  std::size_t picked = 0;
  Batched(tr, "probe.query.SelectEstimator", 20, 1000,
          [&](int) { picked += ugs::SelectEstimator(g, request, supported).ok(); });
  l.Check(picked == 20000, "SelectEstimator resolves the request", "probe policy");
  ugs::GraphSessionOptions inline_engine;
  inline_engine.engine.num_threads = 1;
  const ugs::GraphSession session(g, inline_engine);
  ugs::QueryRequest sampled = request;
  sampled.estimator = ugs::Estimator::kSampled;
  sampled.seed = rng.Next();
  ugs::Result<ugs::QueryResult> via_session = ugs::Status::Internal("not run");
  ugs::McSamples via_kernel;
  // Alternating pairs, so drift in the machine's speed cancels out of the
  // per-pair difference.
  std::vector<double> overhead_us;
  for (int i = 0; i < 40; ++i) {
    tr->BeginOp();
    std::int64_t t0 = NowNs();
    {
      Tracer::Scope span(tr, "probe.query.GraphSession.Run");
      via_session = session.Run(sampled);
    }
    const std::int64_t session_ns = NowNs() - t0;
    tr->BeginOp();
    t0 = NowNs();
    {
      Tracer::Scope span(tr, "probe.query.McReliability");
      ugs::Rng r(sampled.seed);
      via_kernel = ugs::McReliability(g, sampled.pairs, sampled.num_samples, &r, session.engine());
    }
    overhead_us.push_back(static_cast<double>(session_ns - (NowNs() - t0)) * 1e-3);
  }
  m["query.session_overhead_us"] = {Median(overhead_us), "us"};
  l.Check(via_session.ok() && via_session->samples == via_kernel,
          "GraphSession::Run equals the kernel call", "probe session");

  // wire.
  ugs::Result<ugs::QueryResult> miss = session.Run(request);
  if (!l.Check(miss.ok(), "probe request runs", "probe wire")) return;
  std::string encoded;
  Each(tr, "probe.wire.EncodeResult", 200, [&](int) { encoded = ugs::EncodeResult(*miss); });
  bool decoded = true;
  Each(tr, "probe.wire.DecodeResult", 200,
       [&](int) { decoded = ugs::DecodeResult(encoded).ok() && decoded; });
  l.Check(decoded, "DecodeResult reads what EncodeResult wrote", "probe wire");
  m["wire.reply_bytes"] = {static_cast<double>(encoded.size() + 5), "B"};
  const ugs::WireRequest wire_request{"g", request};
  std::string request_bytes;
  Batched(tr, "probe.wire.EncodeRequest", 50, 100,
          [&](int) { request_bytes = ugs::EncodeRequest(wire_request); });
  std::size_t requests_decoded = 0;
  Batched(tr, "probe.wire.DecodeRequest", 50, 100,
          [&](int) { requests_decoded += ugs::DecodeRequest(request_bytes).ok(); });
  l.Check(requests_decoded == 5000, "DecodeRequest reads what EncodeRequest wrote", "probe wire");

  // service.result_cache.
  const auto payload = std::make_shared<const std::string>(encoded);
  ugs::ResultCacheOptions roomy;
  roomy.max_bytes = 64u << 20;
  ugs::ResultCache hot(roomy);
  std::vector<std::string> keys;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    ugs::QueryRequest r = request;
    r.seed = i;
    keys.push_back(ugs::ResultCache::Key("g", 1, r));
  }
  for (std::size_t i = 0; i < kProbeHitSet; ++i) hot.Insert(keys[i], payload);
  std::size_t found = 0;
  Batched(tr, "probe.result_cache.Lookup.hit", 50, 100,
          [&](int i) { found += hot.Lookup(keys[static_cast<std::size_t>(i) % kProbeHitSet]) != nullptr; });
  l.Check(found == 5000, "resident keys hit", "probe cache");
  ugs::ResultCacheOptions tight;
  tight.max_bytes = kProbeCacheBytes;
  ugs::ResultCache cold(tight);
  Each(tr, "probe.result_cache.Insert", 2000,
       [&](int i) { cold.Insert(keys[static_cast<std::size_t>(i)], payload); });
  l.Check(cold.counters().evictions > 0, "the tight cache evicts", "probe cache");

  // service.session_registry.
  ugs::SessionRegistryOptions registry_options;
  registry_options.graph_dir = dir;
  registry_options.session = inline_engine;
  ugs::SessionRegistry registry(registry_options);
  l.Check(registry.Acquire("g").ok(), "registry opens g", dir);
  std::size_t acquired = 0;
  Batched(tr, "probe.session_registry.Acquire", 50, 100,
          [&](int) { acquired += registry.Acquire("g").ok(); });
  l.Check(acquired == 5000, "registry hands out g", dir);
  EdgeListModel model(g, rng.Next());
  std::vector<std::vector<ugs::EdgeUpdate>> batches;
  for (int i = 0; i < 20; ++i) batches.push_back(model.NextBatch());
  bool bumped = true;
  Each(tr, "probe.session_registry.ApplyUpdates", 20, [&](int i) {
    auto v = registry.ApplyUpdates("g", batches[static_cast<std::size_t>(i)]);
    bumped = v.ok() && *v == static_cast<std::uint64_t>(i) + 2 && bumped;
  });
  l.Check(bumped, "registry bumps the version once per batch", dir);

  ServedProbe(ctx, dir, g, request, &rng);

  const std::map<std::string, SpanSummary> spans = SummarizeSpans(tr->spans());
  auto median = [&](const char* name) { return spans.at(name).median_us; };
  m["gen.dataset_ms"] = {median("probe.gen.MakeTwitterLike") * 1e-3, "ms"};
  m["graph.pack_ms"] = {median("probe.graph.WriteCsrGraph") * 1e-3, "ms"};
  m["graph.open_mmap_ms"] = {median("probe.graph.MappedGraph.Open") * 1e-3, "ms"};
  m["graph.apply_updates_ms"] = {median("probe.graph.ApplyUpdates") * 1e-3, "ms"};
  m["query.plain_world_us.G"] = {median("probe.query.SampleWorld.G"), "us"};
  m["query.plain_world_us.Gp"] = {median("probe.query.SampleWorld.Gp"), "us"};
  m["query.skip_world_us.G"] = {median("probe.query.SkipWorldSampler.G"), "us"};
  m["query.policy_us"] = {median("probe.query.SelectEstimator") / 1000.0, "us"};
  m["wire.encode_result_us.miss"] = {median("probe.wire.EncodeResult"), "us"};
  m["wire.decode_result_us.miss"] = {median("probe.wire.DecodeResult"), "us"};
  m["wire.encode_request_us"] = {median("probe.wire.EncodeRequest") / 100.0, "us"};
  m["wire.decode_request_us"] = {median("probe.wire.DecodeRequest") / 100.0, "us"};
  m["result_cache.lookup_hit_us"] = {median("probe.result_cache.Lookup.hit") / 100.0, "us"};
  m["result_cache.insert_us"] = {median("probe.result_cache.Insert"), "us"};
  m["session_registry.acquire_us"] = {median("probe.session_registry.Acquire") / 100.0, "us"};
  m["session_registry.apply_updates_ms"] = {
      median("probe.session_registry.ApplyUpdates") * 1e-3, "ms"};
}

}  // namespace perfbench
