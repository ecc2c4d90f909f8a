#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>

#include "perfbench/src/bench.h"
#include "src/util/thread_pool.h"

namespace perfbench {

namespace {
constexpr std::uint64_t kMaxPrintedFailures = 5;
}  // namespace

void Report::fail_run(const std::string& why) {
  correct = false;
  std::cerr << "run check failed: " << why << "\n";
}

void Report::fail_op(const std::string& why) {
  if (failed < kMaxPrintedFailures) {
    std::cerr << "operation failed: " << why << "\n";
  }
  ++failed;
}

void print_result(const Report& report) {
  std::string line = "{\"correct\": ";
  line += report.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Report::Metric& m = report.metrics[i];
    // JSON has no NaN/inf; a metric that is not finite is a defect of
    // the run, reported through `correct` rather than as invalid JSON.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    line += (i == 0 ? "\"" : ", \"") + m.name + "\": " + value;
  }
  line += "}}";
  std::cout << line << std::endl;
}

// ---- spans ------------------------------------------------------------------

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name,
                           std::uint64_t op)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  const std::int64_t parent =
      recorder_->open_.empty()
          ? -1
          : static_cast<std::int64_t>(recorder_->open_.back());
  index_ = recorder_->spans_.size();
  recorder_->spans_.push_back({name, recorder_->now_us(), 0.0, parent, op});
  recorder_->open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  recorder_->spans_[index_].end_us = recorder_->now_us();
  recorder_->open_.pop_back();
}

std::vector<double> SpanRecorder::self_us() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_us - spans_[i].start_us;
  }
  // Children nest inside their parent on one thread and never overlap
  // each other, so the time they cover is the sum of their durations.
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_us - s.start_us;
    }
  }
  return self;
}

void SpanRecorder::print_self_times() const {
  struct Totals {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Totals> by_name;
  const std::vector<double> self = self_us();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = by_name[spans_[i].name];
    ++t.count;
    t.total_s += (spans_[i].end_us - spans_[i].start_us) * 1e-6;
    t.self_s += self[i] * 1e-6;
  }
  std::vector<std::pair<std::string, Totals>> rows(by_name.begin(),
                                                   by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  std::printf("%-34s %8s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& [name, t] : rows) {
    std::printf("%-34s %8zu %12.6f %12.6f\n", name.c_str(), t.count,
                t.total_s, t.self_s);
  }
}

bool SpanRecorder::write_trace_events(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<double> self = self_us();
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %lld, \"op\": %llu, \"self_us\": %.3f}}%s\n",
                  s.name, s.start_us, s.end_us - s.start_us, i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.op), self[i],
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ---- process measurements ------------------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- statistics ------------------------------------------------------------------

double median(std::vector<double> sample) {
  if (sample.empty()) return 0.0;
  const std::size_t mid = sample.size() / 2;
  std::nth_element(sample.begin(), sample.begin() + mid, sample.end());
  const double hi = sample[mid];
  if (sample.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(sample.begin(), sample.begin() + mid);
  return 0.5 * (lo + hi);
}

double mean(const std::vector<double>& sample) {
  if (sample.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : sample) sum += v;
  return sum / static_cast<double>(sample.size());
}

Tail tail(std::vector<double> sample) {
  const std::size_t n = sample.size();
  if (n < 40) return {median(std::move(sample)), 0.5};
  const double q = std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
  std::sort(sample.begin(), sample.end());
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  return {sample[std::min(n, std::max<std::size_t>(rank, 1)) - 1], q};
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::size_t pool_threads() {
  return std::min<std::size_t>(s2c2::util::ThreadPool::hardware_threads(), 4);
}

}  // namespace perfbench
