// offline-sparsify: in-process library calls on one process, no daemon.
//
// Primary stream (two closed loops side by side, each with its own seeds):
// sparsify G with GDBA at alpha = 16% under a fresh seed, open a
// GraphSession on the new G', and answer one reliability request on it
// (auto estimator: G' has E[p] ~ 0.9, so the plain sampler runs). Side
// stream: every kSideEvery-th operation of a loop, sparsify G with EMDR-t
// at alpha = 16% under a fresh seed.
// After the timed window: the GDB/EMD sweep over alpha in {8,16,32}% and
// the exact oracle.
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.h"
#include "query/graph_session.h"
#include "sparsify/backbone.h"
#include "sparsify/sparsifier.h"
#include "util/random.h"

namespace perfbench {
namespace {

constexpr double kAlpha = 0.16;
constexpr std::size_t kPairs = 20;
constexpr int kSamples = 64;
// Two loops, each with an inline (one-thread) engine: two busy threads on
// a 4-core machine, and no hand-offs between threads inside an operation,
// whose wake-ups the host's steal time would delay.
constexpr int kWorkers = 2;
constexpr int kSideEvery = 8;
constexpr int kSetups = 40;

bool MeansInUnit(const ugs::QueryResult& r) {
  for (double v : r.means) {
    if (!(v >= 0.0 && v <= 1.0)) return false;
  }
  return !r.means.empty();
}

std::unique_ptr<ugs::Sparsifier> Make(const char* name) {
  auto made = ugs::MakeSparsifierByName(name);
  return std::move(made.value());
}

}  // namespace

int RunOfflineSparsify(Context* ctx) {
  Tracer* tr = &ctx->tracer;
  InputRng inputs(ctx->opt.seed);
  const std::uint64_t pair_seed = inputs.Next();
  const std::uint64_t op_seed_base = inputs.Next();
  EndToEnd e2e;
  e2e.loops = kWorkers;
  ugs::GraphSessionOptions inline_engine;
  inline_engine.engine.num_threads = 1;
  const std::unique_ptr<ugs::Sparsifier> gdba = Make("GDBA");
  const std::unique_ptr<ugs::Sparsifier> emdr_t = Make("EMDR-t");

  // --- Set-up, repeated; the last one is kept: generate G, then one warm
  // primary operation under a seed outside the stream's. ---
  ugs::UncertainGraph g;
  std::vector<ugs::VertexPair> pairs;
  for (int rep = 0; rep < kSetups; ++rep) {
    tr->BeginOp();
    const std::int64_t t0 = NowNs();
    {
      Tracer::Scope span(tr, "gen.MakeTwitterLike");
      g = MakeDataset();
    }
    InputRng pair_rng(pair_seed);
    pairs = MakePairs(&pair_rng, g.num_vertices(), kPairs);
    ugs::Rng rng(op_seed_base - 1);
    ugs::Result<ugs::SparsifyOutput> out = [&] {
      Tracer::Scope span(tr, "sparsify.Sparsify");
      return gdba->Sparsify(g, kAlpha, &rng);
    }();
    ugs::Result<ugs::QueryResult> warm = ugs::Status::Internal("not run");
    if (!out.ok()) {
      warm = out.status();
    } else {
      const ugs::GraphSession session_gp(std::move(out->graph), inline_engine);
      Tracer::Scope span(tr, "query.GraphSession.Run");
      warm = session_gp.Run(Reliability(pairs, kSamples, 1));
    }
    e2e.setup_s.push_back(SecondsSince(t0));
    if (!warm.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", warm.status().ToString().c_str());
      return 2;
    }
  }
  const std::vector<double> degrees_g = ExpectedDegrees(g.num_vertices(), ToOracle(g));
  ugs::BackboneOptions random_backbone, spanning_backbone;
  random_backbone.kind = ugs::BackboneKind::kRandom;
  spanning_backbone.kind = ugs::BackboneKind::kSpanning;

  // Rebuilds the backbone a sparsifier started from (same seed) and
  // checks its output against it.
  auto check_output = [&](const ugs::UncertainGraph& gp,
                          const std::vector<ugs::EdgeId>& ids,
                          const ugs::BackboneOptions& backbone_options, std::uint64_t s,
                          const std::string& input) {
    ugs::Rng backbone_rng(s);
    ugs::Result<std::vector<ugs::EdgeId>> backbone =
        ugs::BuildBackbone(g, kAlpha, backbone_options, &backbone_rng);
    if (ctx->ledger.Check(backbone.ok(), "backbone rebuilds", input)) {
      CheckSparsified(ctx, g, degrees_g, gp, ids, *backbone, kAlpha, input);
    }
  };

  // --- Timed window: kWorkers closed loops, each with its own seeds. ---
  struct Worker {
    Tracer tracer{false};
    std::vector<Sample> primary, side;
  };
  std::vector<Worker> workers(kWorkers);
  auto run_worker = [&](int w, std::int64_t window) {
    Worker& me = workers[static_cast<std::size_t>(w)];
    Tracer* wt = &me.tracer;
    InputRng op_seeds(op_seed_base + static_cast<std::uint64_t>(w));
    for (std::size_t ops = 1; SecondsSince(window) < ctx->opt.seconds; ++ops) {
      const std::uint64_t s = op_seeds.Next();
      const std::string input = "GDBA alpha=0.16 seed=" + std::to_string(s);
      ugs::Result<ugs::SparsifyOutput> out = ugs::Status::Internal("not run");
      ugs::Result<ugs::QueryResult> reply = ugs::Status::Internal("not run");
      std::unique_ptr<ugs::GraphSession> session_gp;
      wt->BeginOp();
      const std::int64_t t0 = NowNs();
      {
        Tracer::Scope op(wt, "op.sparsify_and_query");
        {
          Tracer::Scope span(wt, "sparsify.Sparsify");
          ugs::Rng rng(s);
          out = gdba->Sparsify(g, kAlpha, &rng);
        }
        if (out.ok()) {
          {
            Tracer::Scope span(wt, "query.GraphSession.new");
            session_gp =
                std::make_unique<ugs::GraphSession>(std::move(out->graph), inline_engine);
          }
          Tracer::Scope span(wt, "query.GraphSession.Run");
          reply = session_gp->Run(Reliability(pairs, kSamples, s));
        }
      }
      const std::int64_t t_end = NowNs();
      ctx->ledger.Attempt("sparsify_and_query");
      if (!out.ok() || !reply.ok()) {
        ctx->ledger.Fail("sparsify_and_query",
                         input + ": " + (out.ok() ? reply.status() : out.status()).ToString());
        continue;
      }
      me.primary.push_back({static_cast<double>(t_end - window) * 1e-9,
                            static_cast<double>(t_end - t0) * 1e-3});

      // Checks, outside the timed region.
      check_output(session_gp->graph(), out->original_edge_ids, random_backbone, s, input);
      ctx->ledger.Check(reply->estimator == ugs::Estimator::kSampled,
                        "auto picks the plain sampler on G'", input);
      ctx->ledger.Check(MeansInUnit(*reply) && MeansMatchMatrix(*reply),
                        "G' reliability means in [0,1] and equal to row means", input);

      if (ops % kSideEvery != 0) continue;
      const std::string emd_input = "EMDR-t alpha=0.16 seed=" + std::to_string(s);
      wt->BeginOp();
      const std::int64_t t1 = NowNs();
      ugs::Result<ugs::SparsifyOutput> emd = [&] {
        Tracer::Scope op(wt, "op.sparsify_emd");
        Tracer::Scope span(wt, "sparsify.Sparsify");
        ugs::Rng rng(s);
        return emdr_t->Sparsify(g, kAlpha, &rng);
      }();
      const std::int64_t t1_end = NowNs();
      ctx->ledger.Attempt("sparsify_emd");
      if (!emd.ok()) {
        ctx->ledger.Fail("sparsify_emd", emd_input + ": " + emd.status().ToString());
        continue;
      }
      me.side.push_back({static_cast<double>(t1_end - window) * 1e-9,
                         static_cast<double>(t1_end - t1) * 1e-3});
      check_output(emd->graph, emd->original_edge_ids, spanning_backbone, s, emd_input);
    }
  };
  for (Worker& w : workers) w.tracer = Tracer(ctx->opt.trace);
  {
    const std::int64_t window = NowNs();
    std::vector<std::thread> threads;
    for (int w = 0; w < kWorkers; ++w) threads.emplace_back(run_worker, w, window);
    for (std::thread& t : threads) t.join();
  }
  for (Worker& w : workers) {
    e2e.primary.insert(e2e.primary.end(), w.primary.begin(), w.primary.end());
    e2e.side.insert(e2e.side.end(), w.side.begin(), w.side.end());
    tr->Merge(w.tracer);
  }

  // --- Sweep and oracle (checked every run). ---
  const SweepResult sweep = RunSweep(ctx, g, /*gdb_seeds=*/3, /*emd_seeds=*/1, inputs.Next());
  ctx->ledger.Check(sweep.gdb_by_alpha.size() == std::size(kSweepAlphas),
                    "the sweep yields G' at every alpha", "offline sweep");
  InputRng tiny_rng(inputs.Next());
  const TinyGraph tiny = MakeTiny(&tiny_rng);
  ugs::GraphSession tiny_session(ugs::UncertainGraph::FromEdges(tiny.n, tiny.edges));
  CheckTinyOracle(ctx, tiny, [&](const ugs::QueryRequest& r) { return tiny_session.Run(r); },
                  "in-process");
  e2e.peak_rss_kib = static_cast<double>(SelfPeakRssKib());

  char line[160];
  std::snprintf(line, sizeof(line),
                "quality: degree_discrepancy_mae=%.6f zero_p_edges=%zu/%zu "
                "(GDBA, alpha=0.16)",
                sweep.degree_mae_gdb16, sweep.zero_p_gdb16,
                sweep.gdb_by_alpha.size() > 1 ? sweep.gdb_by_alpha[1].num_edges() : 0);
  ctx->notes.push_back(line);

  ReportEndToEnd(ctx, e2e);
  if (ctx->opt.trace) {
    RunLayerProbes(ctx, g, Reliability(pairs, kSamples, 1));
  }
  return 0;
}

}  // namespace perfbench
