// vfm_benchmark: runs one benchmark workload and prints its result as one JSON
// line. benchmark/run.py builds this binary and drives it; see
// benchmark/README.md.
//
//   vfm_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--trace-out FILE] [--smoke]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "benchmark/src/report.h"
#include "benchmark/src/spans.h"
#include "benchmark/src/workloads.h"
#include "src/common/log.h"

namespace {

int Usage(const char* error) {
  std::fprintf(stderr, "vfm_benchmark: %s\nworkloads:", error);
  for (const std::string& name : vfm::bench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  vfm::bench::Options options;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.traced = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else {
      return Usage(("bad argument " + arg).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : vfm::bench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known) {
    return Usage("unknown or missing --workload");
  }
  if (!(options.seconds >= 0)) {
    return Usage("--seconds must be a non-negative number");
  }
  // Budget-exhausted warnings are expected: every chunk ends on its budget.
  vfm::SetLogLevel(vfm::LogLevel::kError);

  vfm::bench::Spans spans(options.traced);
  vfm::bench::Report report;
  vfm::bench::RunWorkload(options, spans, report);
  if (options.traced && !trace_out.empty() && !spans.WriteChromeTrace(trace_out)) {
    report.Fail("could not write the trace file");
  }
  std::printf("%s\n", report
                          .ToJson(options.workload, options.seed, options.traced,
                                  options.smoke, options.seconds,
                                  options.traced ? trace_out : std::string())
                          .c_str());
  return report.correct() ? 0 : 1;
}
