// Shared pieces of the repository benchmark: options, the result record
// printed as the last line of a run, the span recorder, the heap
// allocation counter and the summary statistics every workload uses.
//
// The benchmark drives the s2c2 library only through its public
// headers. Every timing is host wall-clock (std::chrono::steady_clock);
// every simulated quantity is read from the library's results and is
// reported under its own metric, never mixed with a host time.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;  // trace-event JSON output of a traced run
};

/// What one run prints: operation counts, the metrics of its mode
/// (end-to-end untraced, per-layer traced) and human-readable notes.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
  };
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// Units live in BENCHMARK.json; run.py attaches them.
  void add(std::string name, double value) {
    metrics.push_back({std::move(name), value});
  }
  /// Marks the whole run incorrect (a property of the run, not of one
  /// operation, failed) and says why on stderr.
  void fail_run(const std::string& why);
  /// One operation failed a check; says which and why on stderr (only
  /// the first few are printed).
  void fail_op(const std::string& why);
};

/// Prints the result line {"correct", "attempted", "failed", "metrics"},
/// with each metric as name: value.
void print_result(const Report& report);

// ---- spans ----------------------------------------------------------------

/// In-memory span recorder for traced runs. Spans nest by scope on the
/// benchmark's one driving thread; each carries the operation id it
/// belongs to. A disabled recorder makes every scope a no-op (no clock
/// read), which is what the untraced runs use.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

   private:
    SpanRecorder* recorder_;
    std::size_t index_ = 0;
  };

  [[nodiscard]] Scope span(const char* name, std::uint64_t op = 0) {
    return Scope(enabled_ ? this : nullptr, name, op);
  }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Prints, per span name, the count, total duration and self time
  /// (duration minus the time direct children cover), heaviest first.
  void print_self_times() const;

  /// Writes the spans as trace-event JSON ("X" events, microseconds),
  /// readable by chrome://tracing and Perfetto. Returns false on an I/O
  /// error.
  [[nodiscard]] bool write_trace_events(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    std::int64_t parent;  // index into spans_, -1 at top level
    std::uint64_t op;
  };
  [[nodiscard]] double now_us() const;
  [[nodiscard]] std::vector<double> self_us() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // stack of open span indices
};

// ---- process measurements --------------------------------------------------

/// Heap allocations made through the global operator new since start-up,
/// by every thread of the process (counted in alloc_count.cpp).
[[nodiscard]] std::uint64_t heap_allocations();

/// Process high-water resident memory, in MB.
[[nodiscard]] double peak_rss_mb();

// ---- statistics -------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> sample);
[[nodiscard]] double mean(const std::vector<double>& sample);

/// The tail the benchmark reports: the highest percentile (at most the
/// 99th) with at least ten samples beyond it. Below forty samples there is
/// no such tail and the median is returned (q = 0.5).
struct Tail {
  double value = 0.0;
  double q = 0.5;
};
[[nodiscard]] Tail tail(std::vector<double> sample);

/// Seed mixer (splitmix64 finaliser) for deriving independent streams.
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t salt);

/// Width of the inner pool the traced rounds run compares against its
/// serial rounds: min(nproc, 4).
[[nodiscard]] std::size_t pool_threads();

// ---- workloads ----------------------------------------------------------------

[[nodiscard]] Report run_rounds(const Options& options, SpanRecorder& spans);
[[nodiscard]] Report run_serve(const Options& options, SpanRecorder& spans);
[[nodiscard]] Report run_jobs(const Options& options, SpanRecorder& spans);

}  // namespace perfbench
