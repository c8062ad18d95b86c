// serve-miss: ugs_serve as operators run it, result cache on with a byte
// budget far smaller than the request stream.
//
// Primary stream: kClients closed-loop connections send reliability
// requests (kPairs pairs x kSamples samples), each with a distinct seed, so
// every request misses the cache, is inserted, and pushes older entries
// out. Side stream: after the window, each of those requests answered
// in-process by GraphSession::Run with the daemon's engine settings (one
// thread per request, kServeWorkers at a time). That is the served path's
// baseline, and also the check of every reply: latency_p50_us minus
// side_p50_us is what serving adds (wire, transport, cache, dispatch).
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "query/graph_session.h"
#include "service/wire.h"

namespace perfbench {
namespace {

constexpr std::size_t kPairs = 16;
constexpr int kSamples = 48;
constexpr int kClients = 2;
constexpr int kServeWorkers = 2;
constexpr std::size_t kCacheBytes = 256 * 1024;  // ~40 replies of ~6 KiB.
constexpr int kSetups = 30;

struct Reply {
  std::uint64_t seed = 0;
  Sample sample;
  ugs::Result<ugs::QueryResult> result = ugs::Status::Internal("not run");
  Sample local;  ///< The in-process run, filed under the reply's end time.
};

}  // namespace

int RunServeMiss(Context* ctx) {
  Tracer* tr = &ctx->tracer;
  InputRng inputs(ctx->opt.seed);
  const std::uint64_t pair_seed = inputs.Next();
  const std::uint64_t stream_seed = inputs.Next();
  const std::string dir = ctx->opt.work_dir + "/graphs";
  std::filesystem::create_directories(dir);
  InputRng tiny_rng(inputs.Next());
  const TinyGraph tiny = MakeTiny(&tiny_rng);
  EndToEnd e2e;
  e2e.loops = kClients;

  // --- Set-up, repeated; the last deployment is kept. ---
  ugs::UncertainGraph g;
  std::vector<ugs::VertexPair> pairs;
  std::unique_ptr<Daemon> serve;
  for (int rep = 0; rep < kSetups; ++rep) {
    if (serve) serve->Stop();
    tr->BeginOp();
    const std::int64_t t0 = NowNs();
    {
      Tracer::Scope span(tr, "gen.MakeTwitterLike");
      g = MakeDataset();
    }
    InputRng pair_rng(pair_seed);
    pairs = MakePairs(&pair_rng, g.num_vertices(), kPairs);
    {
      Tracer::Scope span(tr, "graph.WriteCsrGraph");
      if (!Pack(g, dir, "g") ||
          !Pack(ugs::UncertainGraph::FromEdges(tiny.n, tiny.edges), dir, "tiny")) {
        std::fprintf(stderr, "cannot pack graphs into %s\n", dir.c_str());
        return 2;
      }
    }
    {
      Tracer::Scope span(tr, "daemon.start");
      serve = StartServe(*ctx, dir, kServeWorkers, kCacheBytes, "serve");
    }
    if (!serve) {
      std::fprintf(stderr, "ugs_serve did not start\n");
      return 2;
    }
    auto client = Connect(serve->port());
    ugs::Result<ugs::QueryResult> warm = client.status();
    if (client.ok()) {
      Tracer::Scope span(tr, "client.Query");
      // The first reply opens (mmaps) the graph; its seed is outside the
      // stream's, so it never hits later.
      warm = client->Query("g", Reliability(pairs, kSamples, stream_seed - 1));
    }
    e2e.setup_s.push_back(SecondsSince(t0));
    if (!warm.ok()) {
      std::fprintf(stderr, "set-up query failed: %s\n", warm.status().ToString().c_str());
      return 2;
    }
  }

  // --- Timed window. ---
  std::atomic<std::uint64_t> next{0};
  std::vector<std::vector<Reply>> replies(kClients);
  std::vector<Tracer> tracers(kClients, Tracer(ctx->opt.trace));
  const std::int64_t window = NowNs();
  const std::int64_t window_end = window + static_cast<std::int64_t>(ctx->opt.seconds * 1e9);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        auto client = Connect(serve->port());
        Tracer* ct = &tracers[static_cast<std::size_t>(c)];
        while (NowNs() < window_end) {
          Reply r;
          r.seed = stream_seed + next.fetch_add(1);
          const ugs::QueryRequest request = Reliability(pairs, kSamples, r.seed);
          ct->BeginOp();
          const std::int64_t t0 = NowNs();
          if (client.ok()) {
            Tracer::Scope span(ct, "client.Query");
            r.result = client->Query("g", request);
          } else {
            r.result = client.status();
          }
          const std::int64_t t_end = NowNs();
          r.sample = {static_cast<double>(t_end - window) * 1e-9,
                      static_cast<double>(t_end - t0) * 1e-3};
          replies[static_cast<std::size_t>(c)].push_back(std::move(r));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (Tracer& t : tracers) tr->Merge(t);

  // --- Server-side accounting, then the exact oracle through the daemon. ---
  auto admin = Connect(serve->port());
  std::string stats;
  if (admin.ok()) {
    ugs::Result<std::string> s = admin->Stats();
    if (s.ok()) stats = *s;
  }
  e2e.peak_rss_kib = static_cast<double>(serve->PeakRssKib());
  CheckTinyOracle(ctx, tiny,
                  [&](const ugs::QueryRequest& r) {
                    return admin.ok() ? admin->Query("tiny", r)
                                      : ugs::Result<ugs::QueryResult>(admin.status());
                  },
                  "ugs_serve");
  ctx->ledger.Check(serve->Stop(), "ugs_serve exits 0 on SIGTERM", "serve-miss");

  // --- Side stream and check: every reply against an in-process run of
  // the same request, on kServeWorkers threads with inline engines, as the
  // daemon ran it. ---
  ugs::GraphSessionOptions inline_engine;
  inline_engine.engine.num_threads = 1;
  const ugs::GraphSession local(g, inline_engine);
  std::vector<Reply*> all;
  for (std::vector<Reply>& list : replies) {
    for (Reply& r : list) all.push_back(&r);
  }
  std::atomic<std::size_t> cursor{0};
  auto verify = [&] {
    for (std::size_t i = cursor.fetch_add(1); i < all.size(); i = cursor.fetch_add(1)) {
      Reply& r = *all[i];
      const std::string input = "reliability seed=" + std::to_string(r.seed);
      if (!r.result.ok()) continue;
      const std::int64_t t0 = NowNs();
      ugs::Result<ugs::QueryResult> expected =
          local.Run(Reliability(pairs, kSamples, r.seed));
      r.local = {r.sample.end_s, static_cast<double>(NowNs() - t0) * 1e-3};
      ctx->ledger.Check(expected.ok() && ugs::PayloadEquals(*expected, *r.result),
                        "reply equals the in-process GraphSession::Run", input);
      ctx->ledger.Check(r.result->graph_version == 1, "reply has graph_version 1", input);
      ctx->ledger.Check(MeansMatchMatrix(*r.result),
                        "per-pair means equal the reply's row means", input);
    }
  };
  {
    std::vector<std::thread> verifiers;
    for (int t = 0; t < kServeWorkers; ++t) verifiers.emplace_back(verify);
    for (std::thread& t : verifiers) t.join();
  }
  std::uint64_t queries = 0;
  double reply_bytes = 0.0;
  for (const Reply* r : all) {
    ++queries;
    ctx->ledger.Attempt("read");
    if (!r->result.ok()) {
      ctx->ledger.Fail("read", "reliability seed=" + std::to_string(r->seed) + ": " +
                                   r->result.status().ToString());
      continue;
    }
    e2e.primary.push_back(r->sample);
    e2e.side.push_back(r->local);
    reply_bytes += static_cast<double>(ugs::EncodeResult(*r->result).size() + 5);
  }

  // The stream never repeats a key: only misses, and the budget evicts.
  const double hits = JsonNumber(stats, {"cache", "hits"});
  const double misses = JsonNumber(stats, {"cache", "misses"});
  const double evictions = JsonNumber(stats, {"cache", "evictions"});
  const std::string where = "cache stats " + stats.substr(0, stats.find("\"registry\""));
  ctx->ledger.Check(hits == 0.0, "no cache hits on distinct seeds", where);
  ctx->ledger.Check(misses == static_cast<double>(queries + 1),
                    "one miss per request (" + std::to_string(queries + 1) + ")", where);
  ctx->ledger.Check(evictions > 0.0, "the byte budget evicts", where);

  char line[192];
  std::snprintf(line, sizeof(line),
                "served: replies=%llu mean_reply_bytes=%.1f cache_misses=%.0f "
                "cache_evictions=%.0f",
                static_cast<unsigned long long>(queries),
                queries ? reply_bytes / static_cast<double>(queries) : 0.0, misses,
                evictions);
  ctx->notes.push_back(line);
  ReportEndToEnd(ctx, e2e);
  if (ctx->opt.trace) RunLayerProbes(ctx, g, Reliability(pairs, kSamples, 1));
  return 0;
}

}  // namespace perfbench
