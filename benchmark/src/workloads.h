// The benchmark's five workloads. Each repeats a fixed unit of work (one guest
// run to its finisher, or one fleet run), with a fresh set-up before each, until
// the units have taken the measured window, timing the calls it makes into each layer
// from outside: Machine run/fork calls, hart cache counters, MonitorStats,
// FleetStats, and a forwarding M-mode owner around the monitor's trap handler.

#ifndef BENCHMARK_SRC_WORKLOADS_H_
#define BENCHMARK_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "benchmark/src/report.h"
#include "benchmark/src/spans.h"

namespace vfm::bench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;  // measured window; the unit in flight at its end completes
  // Traced pass: every other unit runs with spans and the monitor probe, and
  // per-layer metrics are reported from those units.
  bool traced = false;
  // About 1/50 of every unit of work: for quick correctness checks, never numbers.
  bool smoke = false;
};

const std::vector<std::string>& WorkloadNames();

// Runs `options.workload`, recording spans (traced pass) and filling `report`.
void RunWorkload(const Options& options, Spans& spans, Report& report);

}  // namespace vfm::bench

#endif  // BENCHMARK_SRC_WORKLOADS_H_
