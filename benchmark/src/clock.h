// Host time, and the host core clock it runs at.
//
// Host speed on a shared machine drifts with the core clock (turbo frequency
// moves with the load of other tenants), by 10-30% over minutes. Wall time
// multiplied by a clock measured next to it gives host cycles, which do not
// drift: the benchmark's bounded throughput metrics are in cycles.

#ifndef BENCHMARK_SRC_CLOCK_H_
#define BENCHMARK_SRC_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace vfm::bench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Estimates the calling core's clock in Hz by timing a dependent chain of
// integer operations whose latency is a fixed number of cycles (shift, xor,
// 3-cycle multiply, add: 6 cycles per step on current x86-64 cores). Takes
// ~0.3 ms; the fastest of three rounds rejects rounds an interrupt hit.
// Turbo clocks fall as more cores are busy, so `busy_cores` - 1 helper
// threads run the same chain meanwhile: pass the number of cores the measured
// work keeps busy.
double MeasureCoreHz(unsigned busy_cores);

// setup_s is set-up host cycles over this clock: the set-up time on a 3 GHz
// core, which unlike wall time does not move with the host's clock.
constexpr double kReferenceHz = 3.0e9;

}  // namespace vfm::bench

#endif  // BENCHMARK_SRC_CLOCK_H_
