// Starting the daemons the served workloads run against.
#include <cstdio>
#include <string>

#include "bench.h"
#include "graph/csr_format.h"
#include "service/wire.h"

namespace perfbench {
namespace {

/// Starts `program` from the build's tool directory, logging to
/// <work dir>/<name>.log, and waits for its banner. Null on failure.
std::unique_ptr<Daemon> StartDaemon(const Context& ctx, const char* program,
                                    const std::vector<std::string>& args,
                                    const std::string& name) {
  auto daemon = std::make_unique<Daemon>(ctx.opt.bin_dir + "/" + program, args,
                                         ctx.opt.work_dir + "/" + name + ".log");
  if (daemon->Ready() < 0) return nullptr;
  return daemon;
}

}  // namespace

std::unique_ptr<Daemon> StartServe(const Context& ctx, const std::string& dir,
                                   int workers, std::size_t cache_bytes,
                                   const std::string& name) {
  // One engine thread per request and a one-thread default pool: the
  // daemon's busy threads are exactly its workers.
  return StartDaemon(ctx, "ugs_serve",
                     {"--dir=" + dir, "--port=0", "--workers=" + std::to_string(workers),
                      "--engine-threads=1", "--threads=1",
                      "--cache-bytes=" + std::to_string(cache_bytes)},
                     name);
}

ugs::Result<ugs::Client> Connect(int port) {
  return ugs::Client::Connect("127.0.0.1", port);
}

bool Pack(const ugs::UncertainGraph& graph, const std::string& dir,
          const std::string& id) {
  return ugs::WriteCsrGraph(graph, dir + "/" + id + ".ugsc").ok();
}

bool Deployment::Start(const Context& ctx, const std::string& dir,
                       int shard_workers, std::size_t cache_bytes,
                       int router_workers, const std::string& name) {
  std::vector<int> ports;
  for (int s = 0; s < 2; ++s) {
    auto shard = StartServe(ctx, dir, shard_workers, cache_bytes,
                            name + "-shard" + std::to_string(s));
    if (!shard) {
      std::fprintf(stderr, "%s: ugs_serve did not start\n", name.c_str());
      return false;
    }
    ports.push_back(shard->port());
    shards.push_back(std::move(shard));
  }
  std::vector<std::string> args = {"--port=0",
                                   "--workers=" + std::to_string(router_workers)};
  for (int port : ports) args.push_back("--shard=127.0.0.1:" + std::to_string(port));
  router = StartDaemon(ctx, "ugs_router", args, name + "-router");
  if (!router) std::fprintf(stderr, "%s: ugs_router did not start\n", name.c_str());
  return router != nullptr;
}

bool Deployment::Stop() {
  bool clean = true;
  if (router) clean = router->Stop() && clean;
  for (auto& s : shards) clean = s->Stop() && clean;
  router.reset();
  shards.clear();
  return clean;
}

namespace {

std::string StatsVerb(int port, const std::string& verb) {
  auto client = Connect(port);
  if (!client.ok()) return "";
  ugs::Result<std::string> reply = client->Stats(verb);
  return reply.ok() ? *reply : "";
}

}  // namespace

std::string StatsOf(int port) { return StatsVerb(port, ""); }

std::string MetricsOf(int port) { return StatsVerb(port, ugs::kMetricsStatsVerb); }

}  // namespace perfbench
