#include "perfbench/src/replay.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/coding/chunked_decoder.h"
#include "src/coding/decode_context.h"
#include "src/predict/lstm.h"
#include "src/sched/allocation.h"
#include "src/telemetry/health_monitor.h"

namespace perfbench {

namespace {

using namespace s2c2;

/// Timed repetitions per stage; each stage reports its median.
constexpr int kReps = 9;
/// The tolerance the engines verify chunk residuals at.
constexpr double kVerifyTolerance = 1e-6;

template <typename F>
double timed_s(SpanRecorder& spans, const char* name, F&& f) {
  const auto scope = spans.span(name);
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

}  // namespace

double ReplayStages::engine_stage_ms(bool learned_predictor) const {
  double ms = allocate_us * 1e-3 + stage_ms + chunk_compute_ms + decode_ms +
              charge_us * charge_calls * 1e-3 + pulse_us * 1e-3;
  if (learned_predictor) {
    ms += predict_step_us * static_cast<double>(workers) * 1e-3;
  }
  return ms;
}

double relative_error(std::span<const double> got,
                      std::span<const double> want) {
  if (got.size() != want.size()) return std::numeric_limits<double>::infinity();
  double diff = 0.0;
  double scale = std::numeric_limits<double>::min();
  for (std::size_t i = 0; i < want.size(); ++i) {
    diff = std::max(diff, std::abs(got[i] - want[i]));
    scale = std::max(scale, std::abs(want[i]));
  }
  return diff / scale;
}

void reference_product(std::span<const double> a, std::size_t rows,
                       std::size_t cols, std::span<const double> x,
                       std::size_t width, std::span<double> out) {
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < width; ++j) {
      double sum = 0.0;
      for (std::size_t p = 0; p < cols; ++p) {
        sum += a[i * cols + p] * x[p * width + j];
      }
      out[i * width + j] = sum;
    }
  }
}

ReplayStages replay_round(const ReplayInput& in, SpanRecorder& spans,
                          Report& report) {
  const core::CodedMatVecJob& job = *in.job;
  const std::size_t n = job.n();
  const std::size_t k = job.k();
  const std::size_t chunks = job.chunks_per_partition();
  const std::span<const double> speeds = in.predicted_speeds;
  ReplayStages st;
  st.workers = n;
  const auto round_scope = spans.span("replay.round");

  // ---- sched ----
  sched::AllocationScratch scratch;
  sched::Allocation alloc;
  sched::proportional_allocation_into(speeds, k, chunks, scratch, alloc);
  std::vector<double> t;
  for (int r = 0; r < kReps; ++r) {
    t.push_back(timed_s(spans, "sched.proportional_allocation_into", [&] {
      sched::proportional_allocation_into(speeds, k, chunks, scratch, alloc);
    }));
  }
  st.allocate_us = median(t) * 1e6;

  // ---- linalg (chunk compute) and coding (stage, verify, decode) ----
  // A cost-only geometry runs no kernel: no chunk calls.
  if (job.functional()) {
    std::vector<std::pair<std::size_t, std::size_t>> tasks;
    for (std::size_t w = 0; w < n; ++w) {
      const sched::ChunkRange& range = alloc.per_worker[w];
      for (std::size_t i = 0; i < range.count; ++i) {
        tasks.emplace_back(w, (range.begin + i) % chunks);
      }
    }
    st.chunk_calls = static_cast<double>(tasks.size());
    st.flops = st.chunk_calls * 2.0 *
               static_cast<double>(job.rows_per_chunk() * job.data_cols() *
                                   in.width);
    coding::DecodeContext context(job.generator());
    coding::ChunkedDecoder decoder = job.make_decoder(&context, in.width);
    std::vector<std::span<double>> slots(tasks.size());
    linalg::Matrix decoded;
    const std::span<const double> x = in.x_panel->data();
    std::vector<double> stage, compute, verify, decode;
    for (int r = 0; r <= kReps; ++r) {  // repetition 0 warms the caches
      decoder.reset(in.width);
      const double s = timed_s(spans, "coding.stage_chunk", [&] {
        for (std::size_t i = 0; i < tasks.size(); ++i) {
          slots[i] = decoder.stage_chunk(tasks[i].first, tasks[i].second);
        }
      });
      const double c = timed_s(spans, "linalg.compute_chunk_into", [&] {
        for (std::size_t i = 0; i < tasks.size(); ++i) {
          job.compute_chunk_into(tasks[i].first, tasks[i].second, x,
                                 in.width, slots[i]);
        }
      });
      const double v = timed_s(spans, "coding.verify_chunks", [&] {
        (void)decoder.verify_chunks(kVerifyTolerance);
      });
      const double d = timed_s(spans, "coding.decode_into", [&] {
        decoder.decode_into(decoded);
      });
      if (r == 0) continue;
      stage.push_back(s);
      compute.push_back(c);
      verify.push_back(v);
      decode.push_back(d);
    }
    st.stage_ms = median(stage) * 1e3;
    st.chunk_compute_ms = median(compute) * 1e3;
    st.verify_ms = median(verify) * 1e3;
    st.decode_ms = median(decode) * 1e3;

    linalg::Matrix product;
    job.trim_block_into(decoded, product);
    const double err = relative_error(product.data(), in.reference);
    if (!(err <= 1e-9)) {
      report.fail_run("replayed decode differs from the plain product by " +
                      std::to_string(err) + " relative");
    }
  }

  // ---- coding (cost-model charges) ----
  // Exact-k coverage: every chunk index is held by exactly k workers'
  // ranges; consecutive chunks with the same responder set share a charge.
  std::vector<std::vector<std::size_t>> subsets(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    for (std::size_t w = 0; w < n; ++w) {
      if (alloc.per_worker[w].contains(c, chunks)) subsets[c].push_back(w);
    }
    if (subsets[c].size() != k) {
      report.fail_run("allocation covers chunk " + std::to_string(c) + " " +
                      std::to_string(subsets[c].size()) + " times, not k");
      return st;
    }
  }
  std::vector<std::pair<std::size_t, std::size_t>> groups;  // [begin, end)
  for (std::size_t c = 0; c < chunks;) {
    std::size_t e = c + 1;
    while (e < chunks && subsets[e] == subsets[c]) ++e;
    groups.emplace_back(c, e);
    c = e;
  }
  const std::size_t values = job.rows_per_chunk() * in.width;
  auto charge_all = [&](coding::DecodeContext& ctx) {
    for (const auto& [b, e] : groups) {
      (void)ctx.charge(subsets[b], (e - b) * values);
    }
  };
  t.clear();
  coding::DecodeContext warm(job.generator());
  charge_all(warm);
  for (int r = 0; r < kReps; ++r) {
    coding::DecodeContext cold(job.generator());
    coding::DecodeContext& ctx = in.cold_charges ? cold : warm;
    t.push_back(timed_s(spans, "coding.charge",
                        [&] { charge_all(ctx); }));
  }
  st.charge_calls = static_cast<double>(groups.size());
  st.charge_us = median(t) * 1e6 / st.charge_calls;

  // ---- predict ----
  // Step cost does not depend on the weights, so an untrained model of
  // the paper's shape (1 input, 4 hidden units) stands in on every
  // workload.
  const predict::Lstm model(1, 4, in.seed);
  predict::LstmPredictor predictor(n, model);
  double sink = 0.0;
  t.clear();
  for (int r = 0; r <= kReps; ++r) {
    const double s = timed_s(spans, "predict.lstm_step", [&] {
      for (std::size_t w = 0; w < n; ++w) predictor.observe(w, speeds[w]);
      for (std::size_t w = 0; w < n; ++w) sink += predictor.predict(w);
    });
    if (r > 0) t.push_back(s);
  }
  st.predict_step_us = median(t) * 1e6 / static_cast<double>(n);
  if (!std::isfinite(sink)) report.fail_run("LSTM predictions not finite");

  // ---- telemetry ----
  telemetry::HealthMonitor monitor(n);
  t.clear();
  for (int r = 0; r < kReps; ++r) {
    t.push_back(timed_s(spans, "telemetry.record_pulse", [&] {
      for (std::size_t w = 0; w < n; ++w) monitor.record_pulse(w, speeds[w]);
    }));
  }
  st.pulse_us = median(t) * 1e6;
  return st;
}

EngineRounds time_engine_rounds(core::StrategyEngine& engine,
                                const std::function<core::RoundResult()>& run_one,
                                const char* span_name, SpanRecorder& spans) {
  constexpr int kWarmup = 3;
  constexpr int kRounds = 16;
  for (int r = 0; r < kWarmup; ++r) engine.recycle(run_one());
  const coding::DecodeContextStats d0 = engine.decode_stats();
  const double useful0 = engine.accounting().total_useful();
  const double wasted0 = engine.accounting().total_wasted();
  EngineRounds out;
  std::vector<double> round_s;
  std::uint64_t allocations = 0;
  for (int r = 0; r < kRounds; ++r) {
    const auto span = spans.span(span_name);
    const std::uint64_t a0 = heap_allocations();
    const auto t0 = Clock::now();
    core::RoundResult res = run_one();
    round_s.push_back(seconds_since(t0));
    allocations += heap_allocations() - a0;
    out.timeouts += res.stats.timeout_fired ? 1.0 : 0.0;
    out.reassigned += static_cast<double>(res.stats.reassigned_chunks);
    out.predicted_speeds = res.predicted_speeds;
    engine.recycle(std::move(res));
  }
  const coding::DecodeContextStats d1 = engine.decode_stats();
  const double per = 1.0 / kRounds;
  out.round_ms = mean(round_s) * 1e3;
  out.allocs_per_round = static_cast<double>(allocations) * per;
  out.useful_per_round = (engine.accounting().total_useful() - useful0) * per;
  out.wasted_per_round = (engine.accounting().total_wasted() - wasted0) * per;
  out.cache_hits = static_cast<double>(d1.hits - d0.hits) * per;
  out.cache_misses = static_cast<double>(d1.misses - d0.misses) * per;
  out.factor_flops = (d1.factor_flops - d0.factor_flops) * per;
  out.solve_flops = (d1.solve_flops - d0.solve_flops) * per;
  return out;
}

void add_replay_metrics(Report& report, const ReplayStages& st) {
  report.add("sched.allocate_us", st.allocate_us);
  report.add("linalg.chunk_calls", st.chunk_calls);
  report.add("linalg.chunk_compute_ms", st.chunk_compute_ms);
  report.add("linalg.flops", st.flops);
  report.add("linalg.gflops",
             st.chunk_compute_ms > 0.0
                 ? st.flops / (st.chunk_compute_ms * 1e-3) * 1e-9
                 : 0.0);
  report.add("coding.decode_ms", st.decode_ms);
  report.add("coding.verify_ms", st.verify_ms);
  report.add("coding.charge_us", st.charge_us);
  report.add("predict.step_us", st.predict_step_us);
  report.add("telemetry.pulse_us", st.pulse_us);
}

}  // namespace perfbench
