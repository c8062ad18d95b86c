// Shared pieces of the pipeline benchmark: clocks, order statistics, the
// span tracer, daemon processes, the result line and the check ledger.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

/// Seconds since `start_ns`.
inline double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Quantile q in [0,1] of `values` by linear interpolation between order
/// statistics (the "type 7" rule). Requires a non-empty input.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

/// SplitMix64: the benchmark's own generator for every input it draws,
/// so inputs depend on the workload seed alone.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform integer in [0, n).
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  /// Uniform double in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// ---------------------------------------------------------------------------
// Tracing: spans around calls into the program's layers.

/// One recorded span. `op` is shared by every span of one operation;
/// `parent` indexes the enclosing span in the same tracer (-1 at top).
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;
  std::uint64_t op;
};

/// Per-thread span recorder. Disabled tracers record nothing and cost one
/// branch per scope. Spans stay in memory until WriteTsv at the end.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Starts a new operation id for the spans that follow.
  void BeginOp() { ++op_; }

  /// RAII span. Nesting follows scope nesting on one tracer.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
    std::int32_t saved_parent_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Appends another tracer's spans (op ids offset to stay distinct).
  void Merge(const Tracer& other);

  /// Writes name, op, parent, start, end (ns) as tab-separated lines.
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
  std::uint64_t op_ = 0;
};

/// Per-name summary derived from spans: count, median and total duration,
/// and self time (duration minus the part covered by child spans).
struct SpanSummary {
  std::size_t count = 0;
  double median_us = 0.0;
  double total_us = 0.0;
  double self_total_us = 0.0;
};
std::map<std::string, SpanSummary> SummarizeSpans(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Daemons.

/// A child process (ugs_serve / ugs_router) with its stdout on a pipe.
/// Ready() blocks until the daemon prints its "listening on" banner, so
/// readiness is an event, not a sleep. The destructor stops the process
/// (SIGTERM, then SIGKILL after a grace period) and reaps it.
class Daemon {
 public:
  Daemon(const std::string& program, const std::vector<std::string>& args,
         const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Waits for the banner and returns the bound port (-1 on failure).
  int Ready();
  int port() const { return port_; }
  /// Peak resident set (VmHWM) in KiB, read from /proc; 0 if unknown.
  std::uint64_t PeakRssKib() const;
  /// SIGTERM, drain stdout, reap. Returns true on a clean exit 0.
  bool Stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = -1;
  std::string banner_;
  std::string log_path_;
};

/// VmHWM of the calling process in KiB.
std::uint64_t SelfPeakRssKib();

// ---------------------------------------------------------------------------
// Stats JSON and Prometheus text from the daemons.

/// The number after the first `"key":` that follows every earlier key of
/// `path` in order (a flat walk, enough for the stats schema). NaN when
/// absent.
double JsonNumber(const std::string& json, const std::vector<std::string>& path);

/// The sum (seconds) and count of one histogram series in a Prometheus
/// exposition.
struct PromHistogram {
  double sum = 0.0;
  double count = 0.0;
};
/// Reads the series of `family` whose label set contains `label`
/// (e.g. `stage="execute"`).
PromHistogram ParsePromHistogram(const std::string& text,
                                 const std::string& family,
                                 const std::string& label);
/// after - before, bucket by bucket.
PromHistogram Diff(const PromHistogram& after, const PromHistogram& before);
/// Mean in microseconds (sum / count; the power-of-two buckets are too
/// coarse for a median). 0 when the histogram is empty.
double PromMeanUs(const PromHistogram& h);

// ---------------------------------------------------------------------------
// Result reporting.

/// Operation counts by type, and the correctness ledger. A failed check
/// is printed at once with the input it failed on. Thread-safe.
class Ledger {
 public:
  void Attempt(const std::string& type, std::uint64_t n = 1) {
    std::lock_guard<std::mutex> lock(mutex_);
    ops_[type].first += n;
  }
  void Fail(const std::string& type, const std::string& why);
  /// Records a check; prints it and marks the run incorrect when false.
  bool Check(bool ok, const std::string& check, const std::string& input);
  bool correct() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return correct_;
  }
  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  /// One `ops:` line per operation type.
  void PrintOps(const std::string& workload) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> ops_;
  bool correct_ = true;
  std::uint64_t checks_failed_ = 0;
};

/// A named metric value with its unit.
struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The final result line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..}}}.
std::string ResultLine(const Ledger& ledger, const Metrics& metrics);

/// Numbers printed with all their digits (%.17g), JSON-safe.
std::string Num(double v);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
