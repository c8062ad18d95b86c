// offline-query: the paper's G-against-G' comparison, in-process, no daemon.
//
// G' is GDBA at alpha = 16% of G, made once at set-up. Two closed loops
// side by side each run, per iteration and under a fresh seed, the
// four-query battery (reliability, shortest-path, PageRank, clustering)
// through GraphSession with the estimator on auto: first on G' (primary
// stream, E[p] ~ 0.9, plain sampler), then the same battery on G (side
// stream, E[p] ~ 0.156, skip sampler). Each loop's engine is inline (one
// thread), so an operation's time is its own work.
// After the timed window: the exact oracle.
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "bench.h"
#include "query/graph_session.h"
#include "sparsify/sparsifier.h"
#include "util/random.h"

namespace perfbench {
namespace {

constexpr double kAlpha = 0.16;
constexpr std::size_t kPairs = 20;
constexpr int kWorkers = 2;
constexpr int kSetups = 25;

// Samples per kind, chosen so that shortest-path, PageRank and clustering
// each take about a third or more of the battery's time on G or on G'
// (shortest-path on both, PageRank on G, clustering on G'): a slowdown of
// one of those kernels moves a battery figure by about a third of it.
// Reliability is kept small here; offline-sparsify and serve-miss time it
// on its own.
struct Kind {
  const char* query;
  int samples;
  bool pairs;
};
constexpr Kind kBattery[] = {
    {"reliability", 32, true},
    {"shortest-path", 8, true},
    {"pagerank", 8, false},
    {"clustering", 20, false},
};

ugs::QueryRequest BatteryRequest(const Kind& kind, const std::vector<ugs::VertexPair>& pairs,
                                 std::uint64_t seed) {
  ugs::QueryRequest request;
  request.query = kind.query;
  request.num_samples = kind.samples;
  request.seed = seed;
  if (kind.pairs) request.pairs = pairs;
  return request;
}

}  // namespace

int RunOfflineQuery(Context* ctx) {
  Tracer* tr = &ctx->tracer;
  InputRng inputs(ctx->opt.seed);
  const std::uint64_t pair_seed = inputs.Next();
  const std::uint64_t sparsify_seed = inputs.Next();
  const std::uint64_t op_seed_base = inputs.Next();
  EndToEnd e2e;
  e2e.loops = kWorkers;
  ugs::GraphSessionOptions inline_engine;
  inline_engine.engine.num_threads = 1;
  auto gdba = ugs::MakeSparsifierByName("GDBA");

  // --- Set-up, repeated; the last one is kept: generate G, sparsify it,
  // open both sessions, one warm reliability request on each. ---
  ugs::UncertainGraph g;
  std::vector<ugs::VertexPair> pairs;
  std::unique_ptr<ugs::GraphSession> session_g, session_gp;
  for (int rep = 0; rep < kSetups; ++rep) {
    tr->BeginOp();
    const std::int64_t t0 = NowNs();
    {
      Tracer::Scope span(tr, "gen.MakeTwitterLike");
      g = MakeDataset();
    }
    InputRng pair_rng(pair_seed);
    pairs = MakePairs(&pair_rng, g.num_vertices(), kPairs);
    ugs::Rng rng(sparsify_seed);
    ugs::Result<ugs::SparsifyOutput> out = [&] {
      Tracer::Scope span(tr, "sparsify.Sparsify");
      return (*gdba)->Sparsify(g, kAlpha, &rng);
    }();
    if (!out.ok()) {
      std::fprintf(stderr, "set-up sparsify failed: %s\n", out.status().ToString().c_str());
      return 2;
    }
    {
      Tracer::Scope span(tr, "query.GraphSession.new");
      session_g = std::make_unique<ugs::GraphSession>(g, inline_engine);
      session_gp = std::make_unique<ugs::GraphSession>(std::move(out->graph), inline_engine);
    }
    for (const ugs::GraphSession* session : {session_gp.get(), session_g.get()}) {
      Tracer::Scope span(tr, "query.GraphSession.Run");
      ugs::Result<ugs::QueryResult> warm =
          session->Run(BatteryRequest(kBattery[0], pairs, op_seed_base - 1));
      if (!warm.ok()) {
        std::fprintf(stderr, "set-up query failed: %s\n", warm.status().ToString().c_str());
        return 2;
      }
    }
    e2e.setup_s.push_back(SecondsSince(t0));
  }

  // --- Timed window: kWorkers closed loops, each with its own seeds. ---
  struct Worker {
    Tracer tracer{false};
    std::vector<Sample> primary, side;
    std::map<std::string, std::vector<double>> kind_us;  ///< "<query> on <graph>".
    double reliability_gap = 0.0;
    std::size_t gap_terms = 0;
  };
  std::vector<Worker> workers(kWorkers);
  auto run_worker = [&](int w, std::int64_t window) {
    Worker& me = workers[static_cast<std::size_t>(w)];
    Tracer* wt = &me.tracer;
    InputRng op_seeds(op_seed_base + static_cast<std::uint64_t>(w));
    while (SecondsSince(window) < ctx->opt.seconds) {
      const std::uint64_t s = op_seeds.Next();
      std::vector<double> reliability[2];
      for (const bool full : {false, true}) {
        const char* label = full ? "G" : "G'";
        const ugs::GraphSession& session = full ? *session_g : *session_gp;
        const std::string op_type = full ? "battery_g" : "battery_gp";
        const std::string input = std::string("battery on ") + label + " seed=" +
                                  std::to_string(s);
        std::vector<ugs::Result<ugs::QueryResult>> replies;
        replies.reserve(std::size(kBattery));
        double kind_us[std::size(kBattery)];
        wt->BeginOp();
        const std::int64_t t0 = NowNs();
        {
          Tracer::Scope op(wt, full ? "op.battery.G" : "op.battery.Gp");
          for (std::size_t k = 0; k < std::size(kBattery); ++k) {
            const std::int64_t tk = NowNs();
            Tracer::Scope span(wt, "query.GraphSession.Run");
            replies.push_back(session.Run(BatteryRequest(kBattery[k], pairs, s)));
            kind_us[k] = static_cast<double>(NowNs() - tk) * 1e-3;
          }
        }
        const std::int64_t t_end = NowNs();
        ctx->ledger.Attempt(op_type);
        bool ok = true;
        for (std::size_t k = 0; k < std::size(kBattery) && ok; ++k) {
          if (replies[k].ok()) continue;
          ctx->ledger.Fail(op_type, input + " " + kBattery[k].query + ": " +
                                        replies[k].status().ToString());
          ok = false;
        }
        if (!ok) continue;
        (full ? me.side : me.primary)
            .push_back({static_cast<double>(t_end - window) * 1e-9,
                        static_cast<double>(t_end - t0) * 1e-3});
        for (std::size_t k = 0; k < std::size(kBattery); ++k) {
          const ugs::QueryResult& r = *replies[k];
          me.kind_us[std::string(kBattery[k].query) + " on " + label].push_back(kind_us[k]);
          CheckBattery(ctx, r, input + " " + kBattery[k].query);
          ctx->ledger.Check(r.estimator == (full ? ugs::Estimator::kSkipSampler
                                                 : ugs::Estimator::kSampled),
                            "auto picks skip on G and plain on G'",
                            input + " " + kBattery[k].query);
        }
        reliability[full ? 1 : 0] = replies[0]->means;
      }
      for (std::size_t i = 0; i < reliability[0].size() && i < reliability[1].size(); ++i) {
        me.reliability_gap += std::abs(reliability[0][i] - reliability[1][i]);
        ++me.gap_terms;
      }
    }
  };
  for (Worker& w : workers) w.tracer = Tracer(ctx->opt.trace);
  {
    const std::int64_t window = NowNs();
    std::vector<std::thread> threads;
    for (int w = 0; w < kWorkers; ++w) threads.emplace_back(run_worker, w, window);
    for (std::thread& t : threads) t.join();
  }
  double reliability_gap = 0.0;
  std::size_t gap_terms = 0;
  std::map<std::string, std::vector<double>> kind_us;
  for (Worker& w : workers) {
    e2e.primary.insert(e2e.primary.end(), w.primary.begin(), w.primary.end());
    e2e.side.insert(e2e.side.end(), w.side.begin(), w.side.end());
    reliability_gap += w.reliability_gap;
    gap_terms += w.gap_terms;
    for (auto& [name, us] : w.kind_us) {
      kind_us[name].insert(kind_us[name].end(), us.begin(), us.end());
    }
    tr->Merge(w.tracer);
  }

  // --- The exact oracle (checked every run). ---
  InputRng tiny_rng(inputs.Next());
  const TinyGraph tiny = MakeTiny(&tiny_rng);
  ugs::GraphSession tiny_session(ugs::UncertainGraph::FromEdges(tiny.n, tiny.edges));
  CheckTinyOracle(ctx, tiny, [&](const ugs::QueryRequest& r) { return tiny_session.Run(r); },
                  "in-process");
  e2e.peak_rss_kib = static_cast<double>(SelfPeakRssKib());

  std::string kinds = "battery: median us per request:";
  for (const auto& [name, us] : kind_us) kinds += " [" + name + "]=" + Num(Median(us));
  ctx->notes.push_back(kinds);
  char line[192];
  std::snprintf(line, sizeof(line),
                "quality: reliability_mae=%.6f (G' against G, %zu pair terms) "
                "|E|=%zu |E'|=%zu",
                gap_terms ? reliability_gap / static_cast<double>(gap_terms) : 0.0,
                gap_terms, g.num_edges(), session_gp->graph().num_edges());
  ctx->notes.push_back(line);

  ReportEndToEnd(ctx, e2e);
  if (ctx->opt.trace) {
    RunLayerProbes(ctx, g, BatteryRequest(kBattery[0], pairs, 1));
  }
  return 0;
}

}  // namespace perfbench
