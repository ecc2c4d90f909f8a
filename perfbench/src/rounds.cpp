// Workload `rounds`: warm, functional s2c2 block rounds on 1000-worker
// fleets, one caller issuing each round after the previous one returns
// (closed loop) and recycling every result. This is the steady state the
// round hot path was built for: about 8k tiny per-(worker, chunk)
// matmats and one decode-cache hit per round, with prediction, trace
// generation and §4.3 recovery doing no work.
//
// Two choices keep the host figures steady on a virtual machine that
// shares its host with other tenants:
//  * The timed rounds are serial (inner_jobs = 1). The same loop on a
//    4-thread inner pool swung between 134 and 361 rounds/s from one
//    few-second stretch to the next, against 168 to 208 serial. The
//    traced run measures the pool instead (util.inner_speedup).
//  * The caller cycles through kEngines independent engines (jobs of the
//    same geometry, each with its own encoded operator, decode cache and
//    result pool). One engine's ~8 MB working set fits the shared 105 MB
//    last-level cache only while the neighbours leave it there: single-
//    engine rounds took 3.7 ms or 5.7 ms depending on them (rounds_per_s
//    spread 0.30 over ten runs). Cycling through more than the cache
//    holds makes every round fetch its operator from memory, as a master
//    serving many jobs does.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/replay.h"
#include "src/core/coded_job.h"
#include "src/core/engine_factory.h"
#include "src/core/strategy_engine.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace perfbench {

namespace {

using namespace s2c2;

constexpr std::size_t kWorkers = 1000;
constexpr std::size_t kK = 998;
constexpr std::size_t kRows = 16 * kK;
constexpr std::size_t kCols = 48;
constexpr std::size_t kWidth = 8;
constexpr std::size_t kChunks = 8;
constexpr double kWorkerFlops = 1e7;
constexpr double kMasterFlops = 1e9;
constexpr int kWarmupRounds = 3;
constexpr int kSetups = 3;
/// 16 engines x ~8 MB of encoded operator, staging and output exceed the
/// last-level cache (see the header comment).
constexpr std::size_t kEngines = 16;
/// Input panels cycled through the timed rounds, each with its plain
/// reference product computed before timing starts.
constexpr std::size_t kPanels = 4;
/// Consecutive rounds per window. The rate metrics are medians over
/// kWindow-round windows and the tail a median over kTailWindow-round
/// windows, so a burst of host noise that covers less than half the run
/// does not move them.
constexpr std::size_t kWindow = 64;
constexpr std::size_t kTailWindow = 1000;

struct Panel {
  linalg::Matrix x;
  std::vector<double> ref;  // plain A·X, kRows x kWidth row-major
};

struct Fleet {
  std::vector<std::unique_ptr<core::StrategyEngine>> engines;
  double operator_s = 0.0;
  double traces_s = 0.0;
  double make_engine_s = 0.0;
  double total_s = 0.0;

  [[nodiscard]] std::vector<core::StrategyEngine*> views() const {
    std::vector<core::StrategyEngine*> v;
    for (const auto& e : engines) v.push_back(e.get());
    return v;
  }
};

/// Operator generation, the constant heterogeneous fleet, `engines`
/// make_engine calls (each encodes its own copy of the operator) and the
/// warm-up rounds. `a` receives the operator.
Fleet set_up(std::uint64_t seed, std::size_t inner_jobs, std::size_t engines,
             linalg::Matrix& a, const linalg::Matrix& warm_panel,
             SpanRecorder& spans) {
  Fleet f;
  const auto scope = spans.span("setup");
  const auto t0 = Clock::now();
  {
    const auto s = spans.span("workload.operator");
    util::Rng rng(mix(seed, 1));
    a = linalg::Matrix::random_uniform(kRows, kCols, rng);
  }
  const auto t1 = Clock::now();
  core::ClusterSpec cluster;
  {
    const auto s = spans.span("workload.traces");
    util::Rng rng(mix(seed, 2));
    cluster.traces.reserve(kWorkers);
    for (std::size_t w = 0; w < kWorkers; ++w) {
      cluster.traces.push_back(
          sim::SpeedTrace::constant(rng.uniform(0.7, 1.3)));
    }
  }
  cluster.worker_flops = kWorkerFlops;
  cluster.master_flops = kMasterFlops;
  const auto t2 = Clock::now();
  for (std::size_t e = 0; e < engines; ++e) {
    core::EngineParams p;
    p.cluster = cluster;
    p.dense = &a;
    p.k = kK;
    p.chunks_per_partition = kChunks;
    p.oracle_speeds = true;
    p.inner_jobs = inner_jobs;
    const auto s = spans.span("core.make_engine");
    f.engines.push_back(
        core::make_engine(core::StrategyKind::kS2C2, std::move(p)));
  }
  const auto t3 = Clock::now();
  for (const auto& engine : f.engines) {
    for (int r = 0; r < kWarmupRounds; ++r) {
      const auto s = spans.span("core.run_round_block");
      engine->recycle(engine->run_round_block(warm_panel, kWidth));
    }
  }
  f.operator_s = seconds_between(t0, t1);
  f.traces_s = seconds_between(t1, t2);
  f.make_engine_s = seconds_between(t2, t3);
  f.total_s = seconds_since(t0);
  return f;
}

/// Useful work one exact-k round books: k partitions of
/// padded-partition-rows x cols x width multiply-adds at unit speed.
double expected_round_work() {
  std::size_t partition_rows = (kRows + kK - 1) / kK;
  partition_rows = (partition_rows + kChunks - 1) / kChunks * kChunks;
  return static_cast<double>(kK) * 2.0 *
         static_cast<double>(partition_rows * kCols * kWidth) / kWorkerFlops;
}

struct Segment {
  std::vector<double> host_s;  // per run_round_block call
  std::vector<double> sim_s;   // RoundResult::stats.latency()
  std::uint64_t allocations = 0;
  std::size_t timeouts = 0;
  std::size_t reassigned = 0;
  double useful = 0.0;
  double wasted = 0.0;
  std::vector<double> predicted_speeds;  // of the segment's first round
};

/// Closed loop for `seconds` or `max_rounds` rounds, whichever ends
/// first (at least one round), round i on engines[i % engines.size()]:
/// whole rounds only, each checked outside its timed span against the
/// plain product and for exact-k work conservation. A round that throws
/// or fails a check is a failed operation.
Segment run_segment(std::span<core::StrategyEngine* const> engines,
                    const std::vector<Panel>& panels, double seconds,
                    SpanRecorder& spans, Report& report,
                    std::size_t max_rounds = SIZE_MAX) {
  Segment seg;
  const double expected = expected_round_work();
  std::vector<double> before(kWorkers);
  auto total = [&](auto field) {
    double sum = 0.0;
    for (const core::StrategyEngine* e : engines) {
      for (std::size_t w = 0; w < kWorkers; ++w) {
        sum += e->accounting().worker(w).*field;
      }
    }
    return sum;
  };
  const double useful0 = total(&sim::WorkerAccount::useful_work);
  const double wasted0 = total(&sim::WorkerAccount::wasted_work);
  const auto start = Clock::now();
  for (std::size_t i = 0;
       i == 0 || (i < max_rounds && seconds_since(start) < seconds); ++i) {
    core::StrategyEngine& engine = *engines[i % engines.size()];
    const Panel& panel = panels[(i / engines.size()) % panels.size()];
    const sim::Accounting& books = engine.accounting();
    const std::uint64_t op = report.attempted++;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      before[w] = books.worker(w).useful_work;
    }
    try {
      const auto t0 = Clock::now();
      core::RoundResult r;
      {
        const auto s = spans.span("core.run_round_block", op);
        const std::uint64_t a0 = heap_allocations();
        r = engine.run_round_block(panel.x, kWidth);
        seg.allocations += heap_allocations() - a0;
      }
      seg.host_s.push_back(seconds_since(t0));
      seg.sim_s.push_back(r.stats.latency());
      seg.timeouts += r.stats.timeout_fired ? 1 : 0;
      seg.reassigned += r.stats.reassigned_chunks;

      // Exact-k work conservation. Each worker's delta is exact (the two
      // values are within a factor of two); what remains beyond 1e-12
      // relative is the rounding of the books' own additions, at most
      // one unit roundoff of each worker's running total per addition.
      double delta = 0.0;
      double books_total = 0.0;
      for (std::size_t w = 0; w < kWorkers; ++w) {
        const double after = books.worker(w).useful_work;
        delta += after - before[w];
        books_total += after;
      }
      const double tolerance =
          1e-12 * expected +
          2.0 * std::numeric_limits<double>::epsilon() * books_total;
      const double err = r.y_block.has_value()
                             ? relative_error(r.y_block->data(), panel.ref)
                             : std::numeric_limits<double>::infinity();
      if (!(err <= 1e-9)) {
        report.fail_op("round " + std::to_string(op) +
                       ": product differs from the plain A·X by " +
                       std::to_string(err) + " relative");
      } else if (!(std::abs(delta - expected) <= tolerance)) {
        report.fail_op("round " + std::to_string(op) + ": booked " +
                       std::to_string(delta) + " useful work, exact-k is " +
                       std::to_string(expected));
      }
      if (seg.predicted_speeds.empty()) {
        seg.predicted_speeds = r.predicted_speeds;
      }
      engine.recycle(std::move(r));
    } catch (const std::exception& e) {
      report.fail_op("round " + std::to_string(op) + " threw: " + e.what());
    }
  }
  seg.useful = total(&sim::WorkerAccount::useful_work) - useful0;
  seg.wasted = total(&sim::WorkerAccount::wasted_work) - wasted0;
  return seg;
}

/// Median over the complete `window`-round windows of `stat` applied to
/// each window (the whole sample when it is shorter than one window).
template <typename Stat>
double window_median(const std::vector<double>& sample, std::size_t window,
                     Stat&& stat) {
  std::vector<double> windows;
  for (std::size_t b = 0; b + window <= sample.size(); b += window) {
    windows.push_back(stat(std::vector<double>(
        sample.begin() + static_cast<std::ptrdiff_t>(b),
        sample.begin() + static_cast<std::ptrdiff_t>(b + window))));
  }
  if (windows.empty()) return stat(sample);
  return median(std::move(windows));
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// Warm rounds per host second: the median over kWindow-round windows.
double rate(const Segment& seg) {
  return window_median(seg.host_s, kWindow, [](const std::vector<double>& w) {
    return static_cast<double>(w.size()) / sum(w);
  });
}

std::vector<double> scaled(std::vector<double> v, double by) {
  for (double& x : v) x *= by;
  return v;
}

}  // namespace

Report run_rounds(const Options& o, SpanRecorder& spans) {
  Report report;

  std::vector<Panel> panels(kPanels);
  util::Rng panel_rng(mix(o.seed, 3));
  for (Panel& p : panels) {
    p.x = linalg::Matrix(kCols, kWidth);
    for (double& v : p.x.mutable_data()) v = panel_rng.normal();
  }

  linalg::Matrix a;
  Fleet fleet;
  std::vector<double> setup_s, operator_s, traces_s, make_engine_s;
  for (int i = 0; i < kSetups; ++i) {
    fleet = Fleet{};  // release the previous set-up's engines first
    fleet = set_up(o.seed, 1, kEngines, a, panels[0].x, spans);
    setup_s.push_back(fleet.total_s);
    operator_s.push_back(fleet.operator_s);
    traces_s.push_back(fleet.traces_s);
    make_engine_s.push_back(fleet.make_engine_s);
  }
  const std::vector<core::StrategyEngine*> engines = fleet.views();

  // Plain reference products, outside every timed span.
  const std::vector<double> a_plain(a.data().begin(), a.data().end());
  for (Panel& p : panels) {
    p.ref.assign(kRows * kWidth, 0.0);
    reference_product(a_plain, kRows, kCols, p.x.data(), kWidth, p.ref);
  }

  std::printf("workload rounds: s2c2, n=%zu k=%zu, operator %zux%zu dense, "
              "b=%zu, %zu chunks/partition, serial rounds cycling through "
              "%zu engines (traced run compares an inner pool of %zu "
              "threads; nproc %zu), seed %llu\n",
              kWorkers, kK, kRows, kCols, kWidth, kChunks, kEngines,
              pool_threads(), util::ThreadPool::hardware_threads(),
              static_cast<unsigned long long>(o.seed));
  std::printf("setup_s: median of %d set-ups %.4f s\n", kSetups,
              median(setup_s));

  if (!o.trace) {
    const Segment seg = run_segment(engines, panels, o.seconds, spans, report);
    const double rps = rate(seg);
    const std::vector<double> host_ms = scaled(seg.host_s, 1e3);
    const std::size_t windows = host_ms.size() / kTailWindow;
    std::printf("timed: %zu rounds; round_p50_ms over %zu samples, "
                "round_p99_ms the median of the p99s of %zu windows of %zu "
                "rounds\n",
                host_ms.size(), host_ms.size(), windows, kTailWindow);
    report.add("setup_s", median(setup_s));
    report.add("rounds_per_s", rps);
    report.add("round_p50_ms", median(host_ms));
    report.add("round_p99_ms", window_median(host_ms, kTailWindow,
                                             [](const std::vector<double>& w) {
                                               return tail(w).value;
                                             }));
    report.add("requests_per_s", rps * static_cast<double>(kWidth));
    report.add("suite_s", window_median(seg.host_s, kWindow, sum));
    report.add("peak_rss_mb", peak_rss_mb());
    report.add("sim_round_ms", mean(seg.sim_s) * 1e3);
    report.add("sim_request_p99_s", tail(seg.sim_s).value);
    report.add("sim_job_s", window_median(seg.sim_s, kWindow, sum));
    return report;
  }

  // Traced: half the time with spans on, a fifth with them off (the
  // tracing overhead), then a quarter in 64-round windows alternating
  // between one serial engine and a twin on the inner pool
  // (util.inner_speedup), alternated so host drift hits both alike.
  auto decode_totals = [&] {
    coding::DecodeContextStats t;
    for (const core::StrategyEngine* e : engines) {
      const coding::DecodeContextStats d = e->decode_stats();
      t.hits += d.hits;
      t.misses += d.misses;
      t.factor_flops += d.factor_flops;
      t.solve_flops += d.solve_flops;
    }
    return t;
  };
  const coding::DecodeContextStats d0 = decode_totals();
  Segment traced;
  {
    const auto s = spans.span("rounds.traced_loop");
    traced = run_segment(engines, panels, 0.5 * o.seconds, spans, report);
  }
  const coding::DecodeContextStats d1 = decode_totals();
  SpanRecorder off(false);
  const Segment untraced =
      run_segment(engines, panels, 0.2 * o.seconds, off, report);
  linalg::Matrix a_pool;
  Fleet pooled = set_up(o.seed, pool_threads(), 1, a_pool, panels[0].x, off);
  Segment serial_w, pool_w;
  const auto mixed_start = Clock::now();
  while (serial_w.host_s.empty() ||
         seconds_since(mixed_start) < 0.25 * o.seconds) {
    for (auto [engine, into] :
         {std::pair{engines.front(), &serial_w},
          std::pair{pooled.engines.front().get(), &pool_w}}) {
      const Segment w = run_segment(std::span(&engine, 1), panels, o.seconds,
                                    off, report, kWindow);
      into->host_s.insert(into->host_s.end(), w.host_s.begin(),
                          w.host_s.end());
    }
  }
  pooled = Fleet{};

  const core::CodedMatVecJob job(a, kWorkers, kK, kChunks);
  ReplayInput in;
  in.job = &job;
  in.predicted_speeds = traced.predicted_speeds;
  in.width = kWidth;
  in.x_panel = &panels[0].x;
  in.reference = panels[0].ref;
  in.cold_charges = false;
  in.seed = o.seed;
  const ReplayStages st = replay_round(in, spans, report);

  const double rounds = static_cast<double>(traced.host_s.size());
  const double round_ms = mean(traced.host_s) * 1e3;
  report.add("workload.traces_s", median(traces_s));
  report.add("workload.trace_samples", static_cast<double>(kWorkers));
  report.add("workload.operator_s", median(operator_s));
  report.add("core.make_engine_s", median(make_engine_s));
  report.add("core.round_ms", round_ms);
  report.add("core.other_ms", round_ms - st.engine_stage_ms(false));
  report.add("core.heap_allocs_per_round",
             static_cast<double>(traced.allocations) / rounds);
  report.add("core.timeout_rounds", static_cast<double>(traced.timeouts));
  report.add("core.reassigned_chunks", static_cast<double>(traced.reassigned));
  add_replay_metrics(report, st);
  report.add("coding.cache_hits", static_cast<double>(d1.hits - d0.hits) / rounds);
  report.add("coding.cache_misses",
             static_cast<double>(d1.misses - d0.misses) / rounds);
  report.add("coding.factor_flops",
             (d1.factor_flops - d0.factor_flops) / rounds);
  report.add("coding.solve_flops", (d1.solve_flops - d0.solve_flops) / rounds);
  report.add("predict.misprediction_rate",
             engines.front()->misprediction_rate());
  report.add("util.inner_speedup", rate(pool_w) / rate(serial_w));
  report.add("sim.useful_work", traced.useful / rounds);
  report.add("sim.wasted_work", traced.wasted / rounds);
  report.add("trace.overhead_pct",
             (mean(traced.host_s) / mean(untraced.host_s) - 1.0) * 100.0);
  std::printf("chunk compute share of core.round_ms: %.1f%% "
              "(%.0f chunk calls per round)\n",
              100.0 * st.chunk_compute_ms / round_ms, st.chunk_calls);
  return report;
}

}  // namespace perfbench
