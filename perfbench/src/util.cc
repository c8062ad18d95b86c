#include "util.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

extern char** environ;

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

std::uint64_t InputRng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --- Tracer ----------------------------------------------------------------

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  index_ = static_cast<std::int32_t>(tracer_->spans_.size());
  saved_parent_ = tracer_->current_;
  tracer_->spans_.push_back({name, NowNs(), 0, tracer_->current_, tracer_->op_});
  tracer_->current_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_ns = NowNs();
  tracer_->current_ = saved_parent_;
}

void Tracer::Merge(const Tracer& other) {
  const std::int32_t base = static_cast<std::int32_t>(spans_.size());
  const std::uint64_t op_base = op_ + 1;
  std::uint64_t max_op = op_;
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    s.op += op_base;
    max_op = std::max(max_op, s.op);
    spans_.push_back(s);
  }
  op_ = max_op;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\top\tparent\tstart_ns\tend_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%llu\t%d\t%lld\t%lld\n", s.name,
                 static_cast<unsigned long long>(s.op), s.parent,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

std::map<std::string, SpanSummary> SummarizeSpans(
    const std::vector<Span>& spans) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, std::vector<double>> durations;
  std::map<std::string, SpanSummary> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    durations[s.name].push_back(us);
    SpanSummary& sum = out[s.name];
    ++sum.count;
    sum.total_us += us;
    sum.self_total_us += us - child_ns[i] * 1e-3;
  }
  for (auto& [name, values] : durations) out[name].median_us = Median(values);
  return out;
}

// --- Daemons ---------------------------------------------------------------

Daemon::Daemon(const std::string& program,
               const std::vector<std::string>& args,
               const std::string& log_path)
    : log_path_(log_path) {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) return;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[1]);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<std::string> storage;
  storage.push_back(program);
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : storage) argv.push_back(s.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, program.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(pipe_fds[1]);
  if (rc != 0) {
    close(pipe_fds[0]);
    std::fprintf(stderr, "perfbench: cannot start %s: %s\n", program.c_str(),
                 std::strerror(rc));
    return;
  }
  pid_ = pid;
  stdout_fd_ = pipe_fds[0];
}

Daemon::~Daemon() { Stop(); }

int Daemon::Ready() {
  if (pid_ < 0) return -1;
  const std::int64_t deadline = NowNs() + 60'000'000'000LL;
  char buf[4096];
  while (banner_.find('\n') == std::string::npos) {
    const int wait_ms = static_cast<int>((deadline - NowNs()) / 1'000'000);
    if (wait_ms <= 0) return -1;
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (poll(&pfd, 1, wait_ms) <= 0) return -1;
    const ssize_t n = read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) return -1;  // Exited before listening.
    banner_.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t at = banner_.find("listening on ");
  if (at == std::string::npos) return -1;
  const std::size_t colon = banner_.find(':', at + 13);
  if (colon == std::string::npos) return -1;
  port_ = std::atoi(banner_.c_str() + colon + 1);
  return port_ > 0 ? port_ : -1;
}

std::uint64_t Daemon::PeakRssKib() const {
  if (pid_ < 0) return 0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoull(line.c_str() + 6, nullptr, 10);
  }
  return 0;
}

bool Daemon::Stop() {
  if (pid_ < 0) return false;
  kill(pid_, SIGTERM);
  std::string tail = banner_;
  char buf[4096];
  const std::int64_t deadline = NowNs() + 20'000'000'000LL;
  bool killed = false;
  while (stdout_fd_ >= 0) {
    const int wait_ms = static_cast<int>((deadline - NowNs()) / 1'000'000);
    if (wait_ms <= 0 && !killed) {
      kill(pid_, SIGKILL);
      killed = true;
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (poll(&pfd, 1, std::max(wait_ms, 1000)) <= 0) {
      if (killed) break;
      continue;
    }
    const ssize_t n = read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) break;
    tail.append(buf, static_cast<std::size_t>(n));
  }
  if (stdout_fd_ >= 0) close(stdout_fd_);
  stdout_fd_ = -1;
  int status = 0;
  waitpid(pid_, &status, 0);
  pid_ = -1;
  if (std::FILE* f = std::fopen(log_path_.c_str(), "a")) {
    std::fputs(tail.c_str(), f);
    std::fclose(f);
  }
  return !killed && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::uint64_t SelfPeakRssKib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoull(line.c_str() + 6, nullptr, 10);
  }
  return 0;
}

// --- Stats parsing ---------------------------------------------------------

double JsonNumber(const std::string& json,
                  const std::vector<std::string>& path) {
  std::size_t at = 0;
  for (const std::string& key : path) {
    at = json.find("\"" + key + "\":", at);
    if (at == std::string::npos) return std::nan("");
    at += key.size() + 3;
  }
  char* end = nullptr;
  const double v = std::strtod(json.c_str() + at, &end);
  return end == json.c_str() + at ? std::nan("") : v;
}

PromHistogram ParsePromHistogram(const std::string& text,
                                 const std::string& family,
                                 const std::string& label) {
  PromHistogram h;
  std::istringstream in(text);
  std::string line;
  const std::string sum = family + "_sum{";
  const std::string count = family + "_count{";
  while (std::getline(in, line)) {
    if (line.find(label) == std::string::npos) continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const double value = std::strtod(line.c_str() + space + 1, nullptr);
    if (line.rfind(sum, 0) == 0) h.sum = value;
    if (line.rfind(count, 0) == 0) h.count = value;
  }
  return h;
}

PromHistogram Diff(const PromHistogram& after, const PromHistogram& before) {
  return {after.sum - before.sum, after.count - before.count};
}

double PromMeanUs(const PromHistogram& h) {
  return h.count > 0.0 ? h.sum / h.count * 1e6 : 0.0;
}

// --- Reporting -------------------------------------------------------------

void Ledger::Fail(const std::string& type, const std::string& why) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++ops_[type].second;
  std::printf("op failed: %s: %s\n", type.c_str(), why.c_str());
}

bool Ledger::Check(bool ok, const std::string& check,
                   const std::string& input) {
  if (ok) return true;
  std::lock_guard<std::mutex> lock(mutex_);
  correct_ = false;
  if (++checks_failed_ <= 20) {
    std::printf("CHECK FAILED: %s on %s\n", check.c_str(), input.c_str());
    std::fflush(stdout);
  }
  return false;
}

std::uint64_t Ledger::attempted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t n = 0;
  for (const auto& [type, counts] : ops_) n += counts.first;
  return n;
}

std::uint64_t Ledger::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t n = 0;
  for (const auto& [type, counts] : ops_) n += counts.second;
  return n;
}

void Ledger::PrintOps(const std::string& workload) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [type, counts] : ops_) {
    std::printf("ops: workload=%s type=%s attempted=%llu failed=%llu\n",
                workload.c_str(), type.c_str(),
                static_cast<unsigned long long>(counts.first),
                static_cast<unsigned long long>(counts.second));
  }
  if (checks_failed_ > 0) {
    std::printf("checks: failed=%llu\n",
                static_cast<unsigned long long>(checks_failed_));
  }
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultLine(const Ledger& ledger, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += ledger.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ledger.attempted());
  out += ", \"failed\": " + std::to_string(ledger.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + Num(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
