// s2c2_perfbench: one workload of the repository benchmark per process.
//
//   s2c2_perfbench --workload rounds|serve|jobs --seed N --seconds S
//                  --trace 0|1 [--spans trace.json]
//
// Untraced runs print the end-to-end metrics, traced runs the per-layer
// metrics, the span self-time table, and write the spans as trace-event
// JSON to --spans. The last line of standard output is the result
// object; perfbench/run.py builds this binary and attaches the units from
// BENCHMARK.json.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "perfbench/src/bench.h"

namespace {

int usage(const char* why) {
  std::cerr << "error: " << why
            << "\nusage: s2c2_perfbench --workload rounds|serve|jobs --seed N "
               "--seconds S --trace 0|1 [--spans PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        o.workload = value;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
        have_seconds = true;
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        o.trace = value == "1";
        have_trace = true;
      } else if (key == "--spans") {
        o.spans_path = value;
      } else {
        return usage(("unknown option " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 != 1) return usage("every option takes a value");
  if (!have_seed || !have_seconds || !have_trace || o.workload.empty()) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(o.seconds > 0.0 && o.seconds <= 3600.0)) {
    return usage("--seconds must be in (0, 3600]");
  }

  perfbench::SpanRecorder spans(o.trace);
  perfbench::Report report;
  try {
    if (o.workload == "rounds") {
      report = perfbench::run_rounds(o, spans);
    } else if (o.workload == "serve") {
      report = perfbench::run_serve(o, spans);
    } else if (o.workload == "jobs") {
      report = perfbench::run_jobs(o, spans);
    } else {
      return usage(("unknown workload " + o.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "error: workload " << o.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  if (o.trace) {
    std::printf("%zu spans recorded; self time by span:\n", spans.size());
    spans.print_self_times();
    if (!o.spans_path.empty()) {
      if (!spans.write_trace_events(o.spans_path)) {
        std::cerr << "error: cannot write spans to " << o.spans_path << "\n";
        return 1;
      }
      std::printf("spans written to %s\n", o.spans_path.c_str());
    }
  }
  std::fflush(stdout);
  perfbench::print_result(report);
  return 0;
}
