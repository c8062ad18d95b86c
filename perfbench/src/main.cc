// ugs_perfbench: one workload of the pipeline benchmark per invocation.
//
//   ugs_perfbench --workload=<offline-sparsify|offline-query|serve-miss>
//                 --seed=<n> --seconds=<s> --trace=<0|1>
//                 --bin-dir=<dir with ugs_serve, ugs_router>
//                 --work-dir=<scratch dir>
//
// Prints info lines, then one JSON result line last. Exits 1 when a
// correctness check failed (after printing which, on which input), 2 on
// bad usage or a set-up failure.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "util/thread_pool.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "ugs_perfbench: %s\nusage: ugs_perfbench --workload=<name> "
               "--seed=<n> --seconds=<s> --trace=<0|1> --bin-dir=<dir> "
               "--work-dir=<dir>\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) Usage(("bad argument " + arg).c_str());
    const std::string key = arg.substr(0, eq), value = arg.substr(eq + 1);
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--bin-dir") {
      opt.bin_dir = value;
    } else if (key == "--work-dir") {
      opt.work_dir = value;
    } else {
      Usage(("unknown flag " + key).c_str());
    }
  }
  if (opt.seconds <= 0.0) Usage("--seconds must be positive");
  if (opt.bin_dir.empty() || opt.work_dir.empty()) Usage("missing directory");
  std::signal(SIGPIPE, SIG_IGN);  // A dropped connection is an error reply.
  // How much freed memory glibc keeps, and with it this process's peak
  // RSS (offline workloads' peak_rss_mb), would otherwise depend on thread
  // timing: each loop thread gets an arena of its own, and the mmap
  // threshold rises each time a large block is freed. One arena and a
  // fixed threshold (glibc's default value) make the peak repeat.
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  perfbench::Context ctx;
  ctx.opt = opt;
  ctx.tracer = perfbench::Tracer(opt.trace);
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  ctx.threads = static_cast<int>(std::clamp<long>(online, 1, 4));
  ugs::ThreadPool::SetDefaultThreads(ctx.threads);

  int rc = 2;
  if (opt.workload == "offline-sparsify") {
    rc = perfbench::RunOfflineSparsify(&ctx);
  } else if (opt.workload == "offline-query") {
    rc = perfbench::RunOfflineQuery(&ctx);
  } else if (opt.workload == "serve-miss") {
    rc = perfbench::RunServeMiss(&ctx);
  } else {
    Usage(("unknown workload " + opt.workload).c_str());
  }
  if (rc == 2) return 2;  // Set-up failed; nothing measured.

  if (opt.trace) {
    const std::string path = opt.work_dir + "/spans.tsv";
    if (ctx.tracer.WriteTsv(path)) {
      std::printf("spans: %zu written to %s\n", ctx.tracer.spans().size(),
                  path.c_str());
    }
    for (const auto& [name, s] : perfbench::SummarizeSpans(ctx.tracer.spans())) {
      std::printf("span: %-36s count=%-7zu median_us=%-12.3f total_ms=%-11.3f "
                  "self_ms=%.3f\n",
                  name.c_str(), s.count, s.median_us, s.total_us * 1e-3,
                  s.self_total_us * 1e-3);
    }
  }
  for (const std::string& note : ctx.notes) std::printf("%s\n", note.c_str());
  ctx.ledger.PrintOps(opt.workload);
  std::printf("%s\n", perfbench::ResultLine(ctx.ledger, ctx.metrics).c_str());
  std::fflush(stdout);
  return ctx.ledger.correct() ? 0 : 1;
}
