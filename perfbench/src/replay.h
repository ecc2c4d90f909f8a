// Layer replay: one warm round's stages driven through the lower layers'
// public entry points at a workload's geometry, each stage timed on its
// own. The engines run these stages inside run_round / run_round_block,
// where the benchmark cannot reach them; the replay gives each layer a
// time of its own and leaves core.other_ms (round time minus the
// replayed stages) for what only the engine does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/core/coded_job.h"
#include "src/core/strategy_engine.h"
#include "src/linalg/matrix.h"

namespace perfbench {

struct ReplayInput {
  /// The workload's coded job: functional (stages compute, verify and
  /// decode) or cost-only (stages allocate and charge only).
  const s2c2::core::CodedMatVecJob* job = nullptr;
  /// RoundResult::predicted_speeds of one of the workload's warm rounds.
  std::span<const double> predicted_speeds;
  std::size_t width = 1;
  /// data_cols x width input panel; functional geometry only.
  const s2c2::linalg::Matrix* x_panel = nullptr;
  /// Plain A·X, data_rows x width row-major; functional geometry only.
  std::span<const double> reference;
  /// Charge against a cold decode cache (serve, whose rounds miss) or a
  /// warmed one (rounds and jobs, whose responder sets repeat).
  bool cold_charges = false;
  std::uint64_t seed = 0;
};

/// Median per-round stage times over the replay's repetitions.
struct ReplayStages {
  double allocate_us = 0.0;
  double stage_ms = 0.0;
  double chunk_compute_ms = 0.0;
  double verify_ms = 0.0;
  double decode_ms = 0.0;
  double charge_us = 0.0;  // per DecodeContext::charge call
  double charge_calls = 0.0;
  double predict_step_us = 0.0;  // per worker (observe + predict)
  double pulse_us = 0.0;         // per round (n pulses)
  double chunk_calls = 0.0;
  double flops = 0.0;  // computed: 2 x chunk rows x cols x width per call
  std::size_t workers = 0;

  /// Stage time the engine spends per round, in ms: everything replayed
  /// except verification (which runs only on Byzantine clusters) and,
  /// unless the engine predicts with a learned model, the predictor step.
  [[nodiscard]] double engine_stage_ms(bool learned_predictor) const;
};

/// Warm rounds of a workload's engine, outside the workload's own loop
/// (serve and jobs hide their rounds inside the harness call).
struct EngineRounds {
  double round_ms = 0.0;          // mean host ms per round
  double allocs_per_round = 0.0;  // heap allocations, exact
  double timeouts = 0.0;          // rounds whose §4.3 timeout fired
  double reassigned = 0.0;        // chunks reassigned by recovery
  double useful_per_round = 0.0;  // simulated work booked
  double wasted_per_round = 0.0;
  double cache_hits = 0.0;  // decode-cache counts per round
  double cache_misses = 0.0;
  double factor_flops = 0.0;
  double solve_flops = 0.0;
  std::vector<double> predicted_speeds;  // of the last round
};

/// Runs 3 untimed warm-up rounds, then 16 timed ones, each through
/// `run_one` (which calls run_round or run_round_block on `engine`), in a
/// span named `span_name`.
[[nodiscard]] EngineRounds time_engine_rounds(
    s2c2::core::StrategyEngine& engine,
    const std::function<s2c2::core::RoundResult()>& run_one,
    const char* span_name, SpanRecorder& spans);

/// Runs the replay, recording its spans. A decoded product that differs
/// from `reference` beyond 1e-9 relative fails the run.
[[nodiscard]] ReplayStages replay_round(const ReplayInput& input,
                                        SpanRecorder& spans, Report& report);

/// Adds the sched, linalg, coding-time, predict-step and telemetry
/// metrics of a replay.
void add_replay_metrics(Report& report, const ReplayStages& stages);

/// Normwise relative difference max|got - want| / max(|want|, tiny).
[[nodiscard]] double relative_error(std::span<const double> got,
                                    std::span<const double> want);

/// Plain triple-loop A·X over row-major arrays (rows x cols times
/// cols x width). Deliberately free of linalg::Matrix, whose kernels are
/// under test.
void reference_product(std::span<const double> a, std::size_t rows,
                       std::size_t cols, std::span<const double> x,
                       std::size_t width, std::span<double> out);

}  // namespace perfbench
