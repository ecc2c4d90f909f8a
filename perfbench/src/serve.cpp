// Workload `serve`: cost-only harness::run_serve of s2c2 on a 1000-worker
// volatile-cloud fleet. Open-loop Poisson arrivals at load factor 16 from
// 8 tenants, coalesced up to 16 requests per block round, over a stream
// long enough for a few hundred rounds. No kernel and no pool runs: host
// time goes to speed-trace generation, allocation, event simulation and
// accounting at n = 1000, and to a decode cache that misses on most
// responder sets, the opposite use of the coding layer from `rounds`.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/replay.h"
#include "src/core/coded_job.h"
#include "src/core/engine_factory.h"
#include "src/harness/serve.h"

namespace perfbench {

namespace {

using namespace s2c2;

constexpr std::size_t kWorkers = 1000;
constexpr std::size_t kRequests = 4096;
constexpr std::size_t kTenants = 8;
constexpr std::size_t kMaxBatch = 16;
constexpr double kLoadFactor = 16.0;
/// run_serve's cost-only operator shape for this fleet (its default:
/// max(240, 2n) x 36).
constexpr std::size_t kOpRows = 2 * kWorkers;
constexpr std::size_t kOpCols = 36;
constexpr int kSetups = 3;

harness::ServeConfig serve_config(std::uint64_t seed) {
  harness::ServeConfig c;
  c.label = "perfbench";
  c.strategy = core::StrategyKind::kS2C2;
  c.trace = harness::TraceProfile::kVolatileCloud;
  c.workers = kWorkers;
  c.requests = kRequests;
  c.tenants = kTenants;
  c.load_factor = kLoadFactor;
  c.max_batch = kMaxBatch;
  c.functional = false;
  c.op_rows = kOpRows;
  c.op_cols = kOpCols;
  c.seed = seed;
  return c;
}

/// The scenario config run_serve derives for its cluster.
harness::ScenarioConfig scenario_of(const harness::ServeConfig& c) {
  harness::ScenarioConfig sc;
  sc.workers = c.workers;
  sc.k = c.k;
  sc.stragglers = c.stragglers;
  sc.chunks_per_partition = c.chunks_per_partition;
  sc.rounds = std::max<std::size_t>(c.requests, 16);
  sc.seed = c.seed;
  sc.functional = c.functional;
  return sc;
}

struct Setup {
  std::unique_ptr<core::StrategyEngine> engine;
  double make_engine_s = 0.0;
  double total_s = 0.0;
};

/// The public set-up calls run_serve makes on this config: the cluster
/// (speed traces), the speed source (oracle: no model) and the engine.
Setup set_up(const harness::ServeConfig& c, SpanRecorder& spans) {
  Setup s;
  const auto scope = spans.span("setup");
  const auto t0 = Clock::now();
  const harness::ScenarioConfig sc = scenario_of(c);
  core::EngineParams p;
  {
    const auto span = spans.span("harness.make_cluster");
    p.cluster = harness::make_cluster(c.trace, sc, mix(c.seed, 4));
  }
  {
    const auto span = spans.span("harness.make_column_predictor");
    const harness::ColumnPredictor oracle = harness::make_column_predictor(
        sc, harness::WorkloadKind::kLogisticRegression, c.trace);
    p.oracle_speeds = oracle.oracle();
  }
  p.k = c.effective_k();
  p.chunks_per_partition = c.chunks_per_partition;
  p.rows = kOpRows;
  p.cols = kOpCols;
  const auto t1 = Clock::now();
  {
    const auto span = spans.span("core.make_engine");
    s.engine = core::make_engine(c.strategy, std::move(p));
  }
  s.make_engine_s = seconds_since(t1);
  s.total_s = seconds_since(t0);
  return s;
}

/// Replays the FIFO coalescing from each outcome's arrival and its
/// round's latency: dispatch at max(server free, head arrival), take at
/// most max_batch of the waiting requests, complete at dispatch + that
/// round's latency. Returns how many requests disagree; whole-run
/// properties (round count, completion count, p99) fail the run.
std::uint64_t check_serve(const harness::ServeResult& r,
                          const harness::ServeConfig& c, Report& report) {
  const std::vector<harness::RequestOutcome>& out = r.outcomes;
  if (out.size() != c.requests) {
    report.fail_run("serve returned " + std::to_string(out.size()) +
                    " outcomes for " + std::to_string(c.requests) +
                    " requests");
    return c.requests;
  }
  std::vector<bool> bad(out.size(), false);
  std::vector<double> latencies;
  latencies.reserve(out.size());
  double clock = 0.0;
  std::size_t head = 0;
  std::size_t next = 0;
  std::size_t round = 0;
  while (head < out.size()) {
    if (head == next) clock = std::max(clock, out[next].arrival);
    while (next < out.size() && out[next].arrival <= clock) ++next;
    const std::size_t width = std::min(c.max_batch, next - head);
    const double completion = out[head].completion;
    for (std::size_t i = head; i < head + width; ++i) {
      const harness::RequestOutcome& o = out[i];
      bad[i] = o.id != i || o.rejected || o.tenant >= c.tenants ||
               (i > 0 && o.arrival < out[i - 1].arrival) ||
               o.dispatch != clock || o.round != round || o.width != width ||
               o.completion != completion || !(completion > clock);
      latencies.push_back(o.completion - o.arrival);
    }
    clock = completion;
    head += width;
    ++round;
  }
  if (r.rounds != round || r.completed != c.requests || r.rejected != 0) {
    report.fail_run("serve reports " + std::to_string(r.rounds) +
                    " rounds and " + std::to_string(r.completed) +
                    " completions; the FIFO replay gives " +
                    std::to_string(round) + " and " +
                    std::to_string(c.requests));
  }
  std::sort(latencies.begin(), latencies.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(latencies.size())));
  if (latencies[rank - 1] != r.p99_latency) {
    report.fail_run("serve p99 latency differs from the nearest-rank p99");
  }
  return static_cast<std::uint64_t>(std::count(bad.begin(), bad.end(), true));
}

/// Mean simulated latency of a coalesced round, from its requests'
/// dispatch and completion.
double mean_round_latency(const harness::ServeResult& r) {
  std::vector<double> per_round(r.rounds, 0.0);
  for (const harness::RequestOutcome& o : r.outcomes) {
    if (o.round < per_round.size()) {
      per_round[o.round] = o.completion - o.dispatch;
    }
  }
  return mean(per_round);
}

struct Call {
  double seconds = 0.0;
  harness::ServeResult result;
};

/// run_serve calls for `seconds` (whole calls, at least one), each
/// checked; every call of a run must reproduce the first's fingerprint.
std::vector<Call> run_calls(const harness::ServeConfig& c, double seconds,
                            SpanRecorder& spans, Report& report,
                            std::string& fingerprint) {
  std::vector<Call> calls;
  const auto start = Clock::now();
  while (calls.empty() || seconds_since(start) < seconds) {
    const std::uint64_t op = report.attempted;
    report.attempted += c.requests;
    try {
      Call call;
      const auto t0 = Clock::now();
      {
        const auto span = spans.span("harness.run_serve", op);
        call.result = harness::run_serve(c);
      }
      call.seconds = seconds_since(t0);
      const std::uint64_t bad = check_serve(call.result, c, report);
      if (bad > 0) {
        report.fail_op(std::to_string(bad) + " requests of call at op " +
                       std::to_string(op) + " fail the FIFO replay");
        report.failed += bad - 1;
      }
      const std::string fp = call.result.fingerprint();
      if (fingerprint.empty()) fingerprint = fp;
      if (fp != fingerprint) {
        report.fail_run("run_serve is not a pure function of its config");
      }
      calls.push_back(std::move(call));
    } catch (const std::exception& e) {
      report.fail_op("run_serve threw: " + std::string(e.what()));
      report.failed += c.requests - 1;
      if (calls.empty()) return calls;
    }
  }
  return calls;
}

std::vector<double> per_call(const std::vector<Call>& calls, auto&& f) {
  std::vector<double> v;
  for (const Call& c : calls) v.push_back(f(c));
  return v;
}

}  // namespace

Report run_serve(const Options& o, SpanRecorder& spans) {
  Report report;
  const harness::ServeConfig config = serve_config(o.seed);
  std::printf("workload serve: cost-only s2c2, n=%zu k=%zu, volatile-cloud "
              "trace, %zu requests from %zu tenants at load factor %.0f, "
              "max_batch %zu, seed %llu\n",
              kWorkers, config.effective_k(), kRequests, kTenants,
              kLoadFactor, kMaxBatch,
              static_cast<unsigned long long>(o.seed));

  std::vector<double> setup_s, make_engine_s;
  for (int i = 0; i < kSetups; ++i) {
    const Setup s = set_up(config, spans);
    setup_s.push_back(s.total_s);
    make_engine_s.push_back(s.make_engine_s);
  }
  std::printf("setup_s: median of %d set-ups %.4f s\n", kSetups,
              median(setup_s));

  std::string fingerprint;
  const std::vector<Call> calls =
      run_calls(config, o.trace ? 0.6 * o.seconds : o.seconds, spans,
                report, fingerprint);
  if (calls.empty()) return report;
  const harness::ServeResult& first = calls.front().result;
  const auto call_s = per_call(calls, [](const Call& c) { return c.seconds; });
  const double rounds = static_cast<double>(first.rounds);
  std::printf("timed: %zu run_serve calls of %zu requests, %zu rounds each; "
              "decode cache %zu hits, %zu misses per call\n",
              calls.size(), kRequests, first.rounds, first.decode.hits,
              first.decode.misses);

  if (!o.trace) {
    const auto ms_per_round = per_call(
        calls, [&](const Call& c) { return c.seconds / rounds * 1e3; });
    const Tail t = tail(ms_per_round);
    std::printf("round_p50_ms over %zu calls, round_p99_ms at q=%.4f\n",
                calls.size(), t.q);
    report.add("setup_s", median(setup_s));
    report.add("rounds_per_s", median(per_call(calls, [&](const Call& c) {
                 return rounds / c.seconds;
               })));
    report.add("round_p50_ms", median(ms_per_round));
    report.add("round_p99_ms", t.value);
    report.add("requests_per_s", median(per_call(calls, [](const Call& c) {
                 return static_cast<double>(c.result.completed) / c.seconds;
               })));
    report.add("suite_s", median(call_s));
    report.add("peak_rss_mb", peak_rss_mb());
    report.add("sim_round_ms", mean_round_latency(first) * 1e3);
    report.add("sim_request_p99_s", first.p99_latency);
    report.add("sim_job_s", first.makespan);
    return report;
  }

  // Traced: one more call with spans off gives the tracing overhead.
  SpanRecorder off(false);
  const std::vector<Call> untraced =
      run_calls(config, 0.0, off, report, fingerprint);

  double traces_s = 0.0;
  double samples = 0.0;
  {
    const auto span = spans.span("workload.make_traces");
    const auto t0 = Clock::now();
    const std::vector<sim::SpeedTrace> traces = harness::make_traces(
        config.trace, scenario_of(config), mix(config.seed, 4));
    traces_s = seconds_since(t0);
    for (const sim::SpeedTrace& t : traces) {
      samples += static_cast<double>(t.num_segments());
    }
  }

  // One warm cost-only block round of the serving geometry, as the
  // replay's input and the core layer's round time.
  Setup replay = set_up(config, off);
  core::StrategyEngine& engine = *replay.engine;
  const linalg::Matrix no_panel;
  const EngineRounds er = time_engine_rounds(
      engine, [&] { return engine.run_round_block(no_panel, kMaxBatch); },
      "core.run_round_block", spans);
  const core::CodedMatVecJob job = core::CodedMatVecJob::cost_only(
      kOpRows, kOpCols, kWorkers, config.effective_k(),
      config.chunks_per_partition);
  ReplayInput in;
  in.job = &job;
  in.predicted_speeds = er.predicted_speeds;
  in.width = kMaxBatch;
  in.cold_charges = true;
  in.seed = o.seed;
  const ReplayStages st = replay_round(in, spans, report);

  const double round_ms = er.round_ms;
  const double serve_s = median(call_s);
  report.add("harness.serve_s", serve_s);
  report.add("harness.serve_rounds", rounds);
  report.add("harness.serve_mean_width",
             static_cast<double>(first.completed) / rounds);
  report.add("workload.traces_s", traces_s);
  report.add("workload.trace_samples", samples);
  report.add("core.make_engine_s", median(make_engine_s));
  report.add("core.round_ms", round_ms);
  report.add("core.other_ms", round_ms - st.engine_stage_ms(false));
  report.add("core.heap_allocs_per_round", er.allocs_per_round);
  report.add("core.timeout_rounds", er.timeouts);
  report.add("core.reassigned_chunks", er.reassigned);
  add_replay_metrics(report, st);
  report.add("coding.cache_hits",
             static_cast<double>(first.decode.hits) / rounds);
  report.add("coding.cache_misses",
             static_cast<double>(first.decode.misses) / rounds);
  report.add("coding.factor_flops", first.decode.factor_flops / rounds);
  report.add("coding.solve_flops", first.decode.solve_flops / rounds);
  report.add("predict.misprediction_rate", engine.misprediction_rate());
  report.add("util.inner_speedup", 1.0);  // serial rounds: no inner pool
  report.add("sim.useful_work", er.useful_per_round);
  report.add("sim.wasted_work", er.wasted_per_round);
  if (!untraced.empty()) {
    report.add("trace.overhead_pct",
               (serve_s / untraced.front().seconds - 1.0) * 100.0);
  }
  std::printf("workload.traces_s against harness.serve_s: %.3f s of %.3f s "
              "(%.0f%%), %.0f trace samples for %.0f rounds\n",
              traces_s, serve_s, 100.0 * traces_s / serve_s, samples,
              rounds);
  return report;
}

}  // namespace perfbench
