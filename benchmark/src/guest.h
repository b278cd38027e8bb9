// Guest inputs of the benchmark: seeded generators for the guest kernels the
// workloads run. The seed changes which request gets how much work and when the
// guest's periodic timer fires, but never the total work of a run, so a run's
// host cost stays comparable across seeds while its simulated outputs differ.

#ifndef BENCHMARK_SRC_GUEST_H_
#define BENCHMARK_SRC_GUEST_H_

#include <cstdint>
#include <vector>

#include "src/asm/assembler.h"
#include "src/platform/platform.h"
#include "src/workloads/workloads.h"

namespace vfm::bench {

// SplitMix64: the benchmark's only source of randomness.
class SeedRng {
 public:
  explicit SeedRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [-1, 1).
  double Signed();

 private:
  uint64_t state_;
};

// cpu-sv39: each request runs a fixed sequence of phases, each an ALU compute
// loop (64-op bodies) followed by a read-modify-write memory sweep, under Sv39.
struct CpuGuest {
  uint64_t requests = 0;
  std::vector<uint64_t> compute_iters;  // per phase
  std::vector<uint64_t> memory_iters;   // per phase
};
CpuGuest MakeCpuGuest(uint64_t requests, uint64_t seed);
Image BuildCpuKernel(const PlatformProfile& platform, const CpuGuest& guest);

// A request loop with `profile`'s trap mix on every hart. Request i runs
// compute_table[i % kComputeTable] inner iterations of 16 dependent ALU ops, so
// per-request work varies while the total is the same for every seed when
// requests_per_hart is a multiple of the table size.
struct RequestGuest {
  static constexpr unsigned kComputeTable = 128;
  WorkloadProfile profile;
  uint64_t requests_per_hart = 0;
  uint64_t timer_interval = 0;
  std::vector<uint64_t> compute_table;
};
RequestGuest MakeRequestGuest(const WorkloadProfile& profile, uint64_t requests_per_hart,
                              uint64_t seed);
Image BuildRequestKernel(const PlatformProfile& platform, const RequestGuest& guest);

}  // namespace vfm::bench

#endif  // BENCHMARK_SRC_GUEST_H_
