// The GDB/EMD sweep and the battery checks, shared by the offline
// workloads and the layer probes.
#include <cmath>
#include <memory>

#include "bench.h"
#include "sparsify/backbone.h"
#include "sparsify/emd.h"
#include "sparsify/gdb.h"
#include "sparsify/sparse_state.h"
#include "sparsify/sparsifier.h"
#include "util/random.h"

namespace perfbench {
namespace {

struct Method {
  const char* name;
  bool emd;
  ugs::DiscrepancyType discrepancy;
  ugs::BackboneKind backbone;
};

// The two representative variants of the paper's Section 6.1.
constexpr Method kGdba{"GDBA", false, ugs::DiscrepancyType::kAbsolute,
                       ugs::BackboneKind::kRandom};
constexpr Method kEmdrT{"EMDR-t", true, ugs::DiscrepancyType::kRelative,
                        ugs::BackboneKind::kSpanning};

double Ms(std::int64_t start_ns) { return SecondsSince(start_ns) * 1e3; }

}  // namespace

SparsifiedCheck CheckSparsified(Context* ctx, const ugs::UncertainGraph& g,
                       const std::vector<double>& degrees_g,
                       const ugs::UncertainGraph& gp,
                       const std::vector<ugs::EdgeId>& original_ids,
                       const std::vector<ugs::EdgeId>& backbone, double alpha,
                       const std::string& input) {
  Ledger& l = ctx->ledger;
  const auto target = static_cast<std::size_t>(
      std::llround(alpha * static_cast<double>(g.num_edges())));
  l.Check(gp.num_edges() == target,
          "output has round(alpha|E|) = " + std::to_string(target) +
              " edges (got " + std::to_string(gp.num_edges()) + ")",
          input);
  bool ids_ok = original_ids.size() == gp.num_edges();
  std::size_t bad_endpoints = 0, bad_p = 0, zero_p = 0;
  for (std::size_t i = 0; ids_ok && i < original_ids.size(); ++i) {
    const ugs::UncertainEdge& e = gp.edges()[i];
    if (original_ids[i] >= g.num_edges()) {
      ids_ok = false;
      break;
    }
    const ugs::UncertainEdge& o = g.edges()[original_ids[i]];
    if (o.u != e.u || o.v != e.v) ++bad_endpoints;
    if (!(e.p >= 0.0 && e.p <= 1.0)) ++bad_p;
    if (e.p == 0.0) ++zero_p;
  }
  l.Check(ids_ok, "every output edge names an original edge id", input);
  l.Check(bad_endpoints == 0,
          "output edges keep the original endpoints (" +
              std::to_string(bad_endpoints) + " differ)",
          input);
  // GDB's clamp rule (Algorithm 2 line 8) may drive a kept edge to 0, and
  // the program documents that, so [0,1] is the property checked; the
  // zero-probability edges are counted and reported.
  l.Check(bad_p == 0,
          "output probabilities in [0,1] (" + std::to_string(bad_p) +
              " outside)",
          input);
  std::vector<OracleEdge> bb;
  bb.reserve(backbone.size());
  for (ugs::EdgeId e : backbone) {
    const ugs::UncertainEdge& o = g.edges()[e];
    bb.push_back({o.u, o.v, o.p});
  }
  const double mae_out =
      MeanAbsDifference(degrees_g, ExpectedDegrees(g.num_vertices(), ToOracle(gp)));
  const double mae_bb =
      MeanAbsDifference(degrees_g, ExpectedDegrees(g.num_vertices(), bb));
  l.Check(mae_out < mae_bb,
          "degree discrepancy below the backbone's (" + Num(mae_out) +
              " vs " + Num(mae_bb) + ")",
          input);
  return {mae_out, zero_p};
}

SweepResult RunSweep(Context* ctx, const ugs::UncertainGraph& g,
                     int gdb_seeds, int emd_seeds, std::uint64_t seed) {
  SweepResult out;
  Tracer* tr = &ctx->tracer;
  const std::vector<double> degrees_g = ExpectedDegrees(g.num_vertices(), ToOracle(g));
  InputRng seeds(seed);
  for (const Method& method : {kGdba, kEmdrT}) {
    const int num_seeds = method.emd ? emd_seeds : gdb_seeds;
    for (std::size_t a = 0; a < std::size(kSweepAlphas); ++a) {
      const double alpha = kSweepAlphas[a];
      for (int k = 0; k < num_seeds; ++k) {
        const std::uint64_t s = seeds.Next();
        const std::string input = std::string(method.name) + " alpha=" +
                                  Num(alpha) + " seed=" + std::to_string(s);
        ctx->ledger.Attempt("sparsify");
        tr->BeginOp();
        Tracer::Scope op(tr, method.emd ? "sweep.emd" : "sweep.gdb");
        ugs::Rng rng(s);
        ugs::BackboneOptions backbone_options;
        backbone_options.kind = method.backbone;
        std::int64_t t0 = NowNs();
        ugs::Result<std::vector<ugs::EdgeId>> backbone = [&] {
          Tracer::Scope span(tr, "sparsify.BuildBackbone");
          return ugs::BuildBackbone(g, alpha, backbone_options, &rng);
        }();
        out.backbone_ms += Ms(t0);
        if (!backbone.ok()) {
          ctx->ledger.Fail("sparsify", input + ": " + backbone.status().ToString());
          continue;
        }
        ugs::SparseState state(g, *backbone);
        t0 = NowNs();
        if (method.emd) {
          Tracer::Scope span(tr, "sparsify.RunEmd");
          ugs::EmdOptions options;
          options.discrepancy = method.discrepancy;
          const ugs::EmdStats stats = ugs::RunEmd(&state, options);
          out.emd_iterations += static_cast<std::uint64_t>(stats.iterations);
          out.emd_swaps += stats.swaps;
          out.emd_ms += Ms(t0);
        } else {
          Tracer::Scope span(tr, "sparsify.RunGdb");
          ugs::GdbOptions options;
          options.discrepancy = method.discrepancy;
          const ugs::GdbStats stats = ugs::RunGdb(&state, options);
          out.gdb_sweeps += static_cast<std::uint64_t>(stats.sweeps);
          out.gdb_ms += Ms(t0);
        }
        std::vector<ugs::EdgeId> ids;
        ugs::UncertainGraph gp = [&] {
          Tracer::Scope span(tr, "sparsify.BuildGraph");
          return state.BuildGraph(&ids);
        }();
        const SparsifiedCheck checked =
            CheckSparsified(ctx, g, degrees_g, gp, ids, *backbone, alpha, input);
        if (k != 0) continue;
        if (alpha == 0.16) {
          // The layer calls above must be the facade's pipeline exactly.
          auto facade = ugs::MakeSparsifierByName(method.name);
          ugs::Rng facade_rng(s);
          auto via_facade = (*facade)->Sparsify(g, alpha, &facade_rng);
          bool same = via_facade.ok() &&
                      via_facade->original_edge_ids == ids &&
                      via_facade->graph.num_edges() == gp.num_edges();
          for (std::size_t i = 0; same && i < gp.num_edges(); ++i) {
            same = via_facade->graph.edges()[i].p == gp.edges()[i].p;
          }
          ctx->ledger.Check(same, "layer calls reproduce the Sparsifier facade",
                            input);
          if (!method.emd) {
            out.degree_mae_gdb16 = checked.degree_mae;
            out.zero_p_gdb16 = checked.zero_p;
          }
        }
        if (!method.emd) out.gdb_by_alpha.push_back(std::move(gp));
      }
    }
  }
  return out;
}

void CheckBattery(Context* ctx, const ugs::QueryResult& r,
                  const std::string& input) {
  Ledger& l = ctx->ledger;
  if (r.query == "reliability" || r.query == "clustering") {
    bool in_range = !r.means.empty();
    for (double v : r.means) in_range = in_range && v >= 0.0 && v <= 1.0;
    l.Check(in_range, r.query + " means in [0,1]", input);
  } else if (r.query == "pagerank") {
    double sum = 0.0;
    for (double v : r.means) sum += v;
    l.Check(std::abs(sum - 1.0) <= 1e-6,
            "pagerank means sum to 1 (got " + Num(sum) + ")", input);
  } else if (r.query == "shortest-path") {
    bool ok = !r.means.empty();
    for (double v : r.means) ok = ok && (v == 0.0 || v >= 1.0);
    l.Check(ok, "shortest-path means are 0 (never connected) or >= 1", input);
  }
  if (r.samples.num_samples > 0) {
    l.Check(MeansMatchMatrix(r), r.query + " means equal the matrix row means",
            input);
  }
}

}  // namespace perfbench
