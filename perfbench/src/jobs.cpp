// Workload `jobs`: functional harness::run_job to convergence on a
// 100-worker fleet with the trained LSTM predictor, over the grid
// {logreg, pagerank} x {s2c2, mds} x {volatile-cloud, failure-injection},
// one job after another on one thread. It runs what `rounds` does not:
// b = 1 serial matvec rounds over dense and CSR operators, an LSTM
// predict/observe per worker per round, a §4.3 timeout and recovery
// waves on every failure-injection s2c2 round, and responder sets that
// change from round to round.
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
#include "src/harness/job_driver.h"
#include "src/util/rng.h"
#include "src/workload/datasets.h"
#include "src/workload/graphs.h"

namespace perfbench {

namespace {

using namespace s2c2;
using harness::JobApp;
using harness::TraceProfile;

constexpr std::size_t kWorkers = 100;
/// Far above the ~60 iterations the slowest job needs: every job must
/// converge, and one that does not within the cap is a failed operation.
constexpr std::size_t kMaxIterations = 200;
/// The job driver's functional operator shapes (src/harness/job_driver.cpp).
constexpr std::size_t kGdSamples = 960;
constexpr std::size_t kGdFeatures = 480;
constexpr std::size_t kPageRankNodes = 600;
constexpr std::size_t kPageRankOutDegree = 5;
constexpr int kSetups = 5;

constexpr JobApp kApps[] = {JobApp::kLogReg, JobApp::kPageRank};
constexpr core::StrategyKind kStrategies[] = {core::StrategyKind::kS2C2,
                                              core::StrategyKind::kMds};
constexpr TraceProfile kTraces[] = {TraceProfile::kVolatileCloud,
                                    TraceProfile::kFailureInjection};

std::vector<harness::JobConfig> suite(std::uint64_t seed) {
  std::vector<harness::JobConfig> jobs;
  for (const JobApp app : kApps) {
    for (const core::StrategyKind s : kStrategies) {
      for (const TraceProfile t : kTraces) {
        harness::JobConfig c;
        c.app = app;
        c.strategy = s;
        c.trace = t;
        c.workers = kWorkers;
        c.predictor = harness::PredictorKind::kLstm;
        c.max_iterations = kMaxIterations;
        c.seed = seed;
        jobs.push_back(c);
      }
    }
  }
  return jobs;
}

/// A job's operators: logistic regression multiplies by X and Xᵀ (two
/// engines), PageRank by the CSR link matrix (one engine).
struct Operators {
  linalg::Matrix x;
  linalg::Matrix xt;
  linalg::CsrMatrix link;
};

Operators make_operators(const harness::JobConfig& c) {
  util::Rng rng(mix(c.seed, 5 + static_cast<std::uint64_t>(c.app)));
  Operators ops;
  if (c.app == JobApp::kLogReg) {
    ops.x = workload::make_classification(kGdSamples, kGdFeatures, rng, 3.0,
                                          0.8)
                .x;
    ops.xt = ops.x.transposed();
  } else {
    ops.link = workload::link_matrix(
        workload::power_law_digraph(kPageRankNodes, kPageRankOutDegree, rng));
  }
  return ops;
}

/// The job's cluster as run_job calibrates it: the column's traces, with
/// worker speed scaled to the app's operator and a 6x faster master.
core::ClusterSpec job_cluster(const harness::JobConfig& c) {
  const harness::ScenarioConfig sc = c.scenario();
  core::ClusterSpec spec = harness::make_cluster(
      c.trace, sc,
      harness::trace_salt(c.seed, harness::job_trace_column(c.app), c.trace));
  const harness::WorkloadShape shape =
      harness::workload_shape(harness::WorkloadKind::kLogisticRegression, sc);
  const double app_flops =
      c.app == JobApp::kLogReg
          ? core::matvec_flops(kGdSamples, kGdFeatures)
          : core::matvec_flops(kPageRankNodes, kPageRankNodes);
  spec.worker_flops *= app_flops / core::matvec_flops(shape.rows, shape.cols);
  spec.master_flops = 6.0 * spec.worker_flops;
  return spec;
}

/// One engine of a job, with the speed source it predicts from (the
/// bundle must outlive the engine: the LSTM adapter refers into it).
struct Channel {
  harness::ColumnPredictor bundle;
  std::unique_ptr<core::StrategyEngine> engine;
};

struct SetupTimes {
  double train_s = 0.0;
  double operator_s = 0.0;
  double make_engine_s = 0.0;
  double total_s = 0.0;
};

struct JobSetup {
  std::unique_ptr<Operators> ops;  // borrowed by the engines
  std::vector<Channel> channels;
};

/// run_job's public set-up calls for one job: cluster, operators, speed
/// source (trains the LSTM on first use of a column) and engines.
JobSetup set_up_job(const harness::JobConfig& c, SetupTimes& t,
                    SpanRecorder& spans) {
  JobSetup out;
  const auto t0 = Clock::now();
  core::ClusterSpec spec;
  {
    const auto span = spans.span("harness.make_cluster");
    spec = job_cluster(c);
  }
  const auto t1 = Clock::now();
  {
    const auto span = spans.span("workload.operator");
    out.ops = std::make_unique<Operators>(make_operators(c));
  }
  t.operator_s += seconds_since(t1);

  const bool logreg = c.app == JobApp::kLogReg;
  out.channels.resize(logreg ? 2 : 1);
  for (std::size_t i = 0; i < out.channels.size(); ++i) {
    Channel& ch = out.channels[i];
    core::EngineParams p;
    p.cluster = spec;
    p.k = c.effective_k();
    p.chunks_per_partition = c.chunks_per_partition;
    if (logreg) {
      p.dense = i == 0 ? &out.ops->x : &out.ops->xt;
    } else {
      p.sparse = &out.ops->link;
    }
    const auto p0 = Clock::now();
    if (core::strategy_uses_predictions(c.strategy)) {
      const auto span = spans.span("harness.make_column_predictor");
      ch.bundle = harness::make_column_predictor(
          c.scenario(), harness::job_trace_column(c.app), c.trace);
      p.oracle_speeds = ch.bundle.oracle();
      p.predictor = std::move(ch.bundle.predictor);
    } else {
      p.oracle_speeds = true;
    }
    const auto p1 = Clock::now();
    {
      const auto span = spans.span("core.make_engine");
      ch.engine = core::make_engine(c.strategy, std::move(p));
    }
    t.train_s += seconds_between(p0, p1);
    t.make_engine_s += seconds_since(p1);
  }
  t.total_s += seconds_since(t0);
  return out;
}

/// Set-up of every job of the suite. Repetition r > 0 uses a derived
/// seed, so each repetition trains its LSTMs afresh (training is
/// memoized per seed and column) and all repetitions do the same work.
SetupTimes set_up_suite(std::uint64_t seed, SpanRecorder& spans) {
  const auto scope = spans.span("setup");
  SetupTimes t;
  for (const harness::JobConfig& c : suite(seed)) {
    (void)set_up_job(c, t, spans);
  }
  return t;
}

struct Suite {
  double seconds = 0.0;
  std::vector<double> job_s;
  std::vector<harness::JobResult> results;
  std::string fingerprint;
};

bool agree(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

/// Runs the suite once, one job after another, and checks it: each job
/// must not fail and must converge; per (app, trace) the s2c2 job must
/// take the mds job's iteration count, because coding changes time, never
/// the math. Logistic regression's final metric (the objective) must also
/// agree within 1e-9 relative. PageRank's final metric is its last L1
/// step, a difference of near-equal rank vectors in which the two
/// strategies' last-bit decode roundoff reaches 1.65e-9 relative on some
/// seeds (seed 7 of 1..30), so that comparison is left out.
Suite run_suite(const std::vector<harness::JobConfig>& jobs,
                SpanRecorder& spans, Report& report) {
  Suite s;
  const auto scope = spans.span("jobs.suite");
  for (const harness::JobConfig& c : jobs) {
    const std::uint64_t op = report.attempted++;
    const auto t0 = Clock::now();
    harness::JobResult r;
    {
      const auto span = spans.span("harness.run_job", op);
      r = harness::run_job(c);
    }
    const double dt = seconds_since(t0);
    s.seconds += dt;
    s.job_s.push_back(dt);
    const std::string name = std::string(harness::job_app_name(c.app)) + "/" +
                             core::strategy_name(c.strategy) + "/" +
                             harness::trace_profile_name(c.trace);
    if (r.failed) {
      report.fail_op(name + " failed: " + r.error);
    } else if (!r.converged) {
      report.fail_op(name + " did not converge in " +
                     std::to_string(kMaxIterations) + " iterations");
    }
    s.fingerprint += r.fingerprint();
    s.results.push_back(std::move(r));
  }
  // Grid order is app, strategy, trace: s2c2 at i, mds at i + |traces|.
  const std::size_t stride = std::size(kTraces);
  for (std::size_t i = 0; i < s.results.size(); ++i) {
    if (jobs[i].strategy != core::StrategyKind::kS2C2) continue;
    const harness::JobResult& coded = s.results[i];
    const harness::JobResult& mds = s.results[i + stride];
    if (coded.failed || mds.failed) continue;
    const bool compare_final = jobs[i].app == JobApp::kLogReg;
    if (coded.iterations != mds.iterations ||
        (compare_final &&
         !agree(coded.final_metric, mds.final_metric, 1e-9))) {
      char detail[160];
      std::snprintf(detail, sizeof(detail),
                    ": s2c2 and mds disagree (%zu vs %zu iterations, final "
                    "metric %.17g vs %.17g)",
                    coded.iterations, mds.iterations, coded.final_metric,
                    mds.final_metric);
      report.fail_op(std::string(harness::job_app_name(jobs[i].app)) + "/" +
                     harness::trace_profile_name(jobs[i].trace) + detail);
    }
  }
  return s;
}

std::vector<Suite> run_suites(const std::vector<harness::JobConfig>& jobs,
                              double seconds, SpanRecorder& spans,
                              Report& report) {
  std::vector<Suite> suites;
  const auto start = Clock::now();
  while (suites.empty() || seconds_since(start) < seconds) {
    suites.push_back(run_suite(jobs, spans, report));
    if (suites.back().fingerprint != suites.front().fingerprint) {
      report.fail_run("run_job is not a pure function of its config");
    }
  }
  return suites;
}

/// Sum of `f` over the s2c2 (or mds) jobs of a suite.
double sum_over(const std::vector<harness::JobConfig>& jobs,
                const Suite& s, core::StrategyKind kind, auto&& f) {
  double sum = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].strategy == kind) sum += f(s.results[i]);
  }
  return sum;
}

}  // namespace

Report run_jobs(const Options& o, SpanRecorder& spans) {
  Report report;
  const std::vector<harness::JobConfig> jobs = suite(o.seed);
  std::printf("workload jobs: n=%zu k=%zu, LSTM predictor, {logreg, "
              "pagerank} x {s2c2, mds} x {volatile-cloud, "
              "failure-injection}, cap %zu iterations, seed %llu\n",
              kWorkers, jobs.front().effective_k(), kMaxIterations,
              static_cast<unsigned long long>(o.seed));

  std::vector<SetupTimes> setups;
  for (int i = 0; i < kSetups; ++i) {
    setups.push_back(
        set_up_suite(i == 0 ? o.seed : mix(o.seed, 100 + i), spans));
  }
  auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return median(std::move(v));
  };
  std::printf("setup_s: median of %d set-ups %.4f s\n", kSetups,
              setup_median(&SetupTimes::total_s));

  const std::vector<Suite> suites = run_suites(
      jobs, o.trace ? 0.6 * o.seconds : o.seconds, spans, report);
  const Suite& first = suites.front();
  double rounds = 0.0;
  for (const harness::JobResult& r : first.results) {
    rounds += static_cast<double>(r.rounds);
  }
  const auto completion = [](const harness::JobResult& r) {
    return r.completion_time;
  };
  std::printf("timed: %zu suites of %zu jobs, %.0f coded rounds each\n",
              suites.size(), jobs.size(), rounds);

  if (!o.trace) {
    std::vector<double> suite_s, rounds_per_s, jobs_per_s, ms_per_round;
    for (const Suite& s : suites) {
      suite_s.push_back(s.seconds);
      rounds_per_s.push_back(rounds / s.seconds);
      jobs_per_s.push_back(static_cast<double>(jobs.size()) / s.seconds);
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        ms_per_round.push_back(
            s.job_s[i] / static_cast<double>(first.results[i].rounds) * 1e3);
      }
    }
    const Tail t = tail(ms_per_round);
    std::printf("round_p50_ms over %zu jobs, round_p99_ms at q=%.4f\n",
                ms_per_round.size(), t.q);
    double s2c2_rounds = 0.0;
    double slowest = 0.0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].strategy != core::StrategyKind::kS2C2) continue;
      s2c2_rounds += static_cast<double>(first.results[i].rounds);
      slowest = std::max(slowest, first.results[i].completion_time);
    }
    const double sim_job_s =
        sum_over(jobs, first, core::StrategyKind::kS2C2, completion);
    report.add("setup_s", setup_median(&SetupTimes::total_s));
    report.add("rounds_per_s", median(rounds_per_s));
    report.add("round_p50_ms", median(ms_per_round));
    report.add("round_p99_ms", t.value);
    report.add("requests_per_s", median(jobs_per_s));
    report.add("suite_s", median(suite_s));
    report.add("peak_rss_mb", peak_rss_mb());
    report.add("sim_round_ms", sim_job_s / s2c2_rounds * 1e3);
    report.add("sim_request_p99_s", slowest);
    report.add("sim_job_s", sim_job_s);
    return report;
  }

  // Traced: one more suite with spans off gives the tracing overhead.
  SpanRecorder off(false);
  const Suite untraced = run_suite(jobs, off, report);

  std::vector<double> logreg_s, pagerank_s, traced_s;
  for (const Suite& s : suites) {
    double lr = 0.0, pr = 0.0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      (jobs[i].app == JobApp::kLogReg ? lr : pr) += s.job_s[i];
    }
    logreg_s.push_back(lr);
    pagerank_s.push_back(pr);
    traced_s.push_back(s.seconds);
  }
  double traces_s = 0.0;
  double samples = 0.0;
  for (const harness::JobConfig& c : jobs) {
    const auto span = spans.span("workload.make_traces");
    const auto t0 = Clock::now();
    const std::vector<sim::SpeedTrace> traces = harness::make_traces(
        c.trace, c.scenario(),
        harness::trace_salt(c.seed, harness::job_trace_column(c.app),
                            c.trace));
    traces_s += seconds_since(t0);
    for (const sim::SpeedTrace& t : traces) {
      samples += static_cast<double>(t.num_segments());
    }
  }

  // One warm round of the logreg/s2c2/volatile-cloud forward product (b=1
  // over the dense 960x480 operator, LSTM speeds) as the replay's input
  // and the core layer's round time.
  const harness::JobConfig& lead = jobs.front();
  SetupTimes unused;
  const JobSetup lead_setup = set_up_job(lead, unused, off);
  const Operators& ops = *lead_setup.ops;
  core::StrategyEngine& engine = *lead_setup.channels.front().engine;
  util::Rng rng(mix(o.seed, 9));
  linalg::Matrix w(kGdFeatures, 1);
  for (double& v : w.mutable_data()) v = rng.normal(0.0, 0.1);
  const EngineRounds er = time_engine_rounds(
      engine, [&] { return engine.run_round(w.data()); }, "core.run_round",
      spans);

  const core::CodedMatVecJob job(ops.x, kWorkers, lead.effective_k(),
                                 lead.chunks_per_partition);
  const std::vector<double> x_plain(ops.x.data().begin(),
                                    ops.x.data().end());
  std::vector<double> reference(kGdSamples);
  reference_product(x_plain, kGdSamples, kGdFeatures, w.data(), 1,
                    reference);
  ReplayInput in;
  in.job = &job;
  in.predicted_speeds = er.predicted_speeds;
  in.width = 1;
  in.x_panel = &w;
  in.reference = reference;
  in.cold_charges = false;
  in.seed = o.seed;
  const ReplayStages st = replay_round(in, spans, report);

  double timeouts = 0.0, reassigned = 0.0, iterations = 0.0;
  double useful = 0.0, wasted = 0.0;
  for (const harness::JobResult& r : first.results) {
    timeouts += std::round(r.timeout_rate * static_cast<double>(r.rounds));
    reassigned += static_cast<double>(r.reassigned_chunks);
    iterations += static_cast<double>(r.iterations);
    useful += r.total_useful;
    wasted += r.total_wasted;
  }
  const double round_ms = er.round_ms;
  report.add("harness.job_s.logreg", median(logreg_s));
  report.add("harness.job_s.pagerank", median(pagerank_s));
  report.add("harness.job_iterations", iterations);
  report.add("harness.job_rounds", rounds);
  report.add("harness.sim_job_s.mds",
             sum_over(jobs, first, core::StrategyKind::kMds, completion));
  report.add("workload.traces_s", traces_s);
  report.add("workload.trace_samples", samples);
  report.add("workload.operator_s", setup_median(&SetupTimes::operator_s));
  report.add("core.make_engine_s", setup_median(&SetupTimes::make_engine_s));
  report.add("core.round_ms", round_ms);
  report.add("core.other_ms", round_ms - st.engine_stage_ms(true));
  report.add("core.heap_allocs_per_round", er.allocs_per_round);
  report.add("core.timeout_rounds", timeouts);
  report.add("core.reassigned_chunks", reassigned);
  add_replay_metrics(report, st);
  report.add("coding.cache_hits", er.cache_hits);
  report.add("coding.cache_misses", er.cache_misses);
  report.add("coding.factor_flops", er.factor_flops);
  report.add("coding.solve_flops", er.solve_flops);
  report.add("predict.train_s", setup_median(&SetupTimes::train_s));
  report.add("predict.misprediction_rate",
             sum_over(jobs, first, core::StrategyKind::kS2C2,
                      [](const harness::JobResult& r) {
                        return r.misprediction_rate;
                      }) /
                 sum_over(jobs, first, core::StrategyKind::kS2C2,
                          [](const harness::JobResult&) { return 1.0; }));
  report.add("util.inner_speedup", 1.0);  // one thread: no inner pool
  report.add("sim.useful_work", useful);
  report.add("sim.wasted_work", wasted);
  report.add("trace.overhead_pct",
             (median(traced_s) / untraced.seconds - 1.0) * 100.0);
  return report;
}

}  // namespace perfbench
