#include "benchmark/src/guest.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/common/check.h"
#include "src/kernel/kernel.h"

namespace vfm::bench {

namespace {

// cpu-sv39 request shape: kCpuPhases compute+memory phase pairs per request.
// One compute iteration retires ~98 instructions and one memory sweep 66, so
// the two halves of a phase are about equal in instructions.
constexpr size_t kCpuPhases = 8;
constexpr uint64_t kCpuComputeIters = 100;
constexpr uint64_t kCpuMemoryIters = 150;
constexpr double kSpread = 0.10;

KernelConfig BaseKernelConfig(const PlatformProfile& platform) {
  KernelConfig config;
  config.base = platform.kernel_base;
  config.finisher_base = platform.machine.map.finisher_base;
  config.plic_base = platform.machine.map.plic_base;
  config.blockdev_base = platform.machine.map.blockdev_base;
  return config;
}

// Adds `value` to result slot `slot` with an AMO (safe from any hart).
void EmitSlotAdd(KernelBuilder& kb, unsigned slot, uint64_t value) {
  Assembler& a = kb.assembler();
  a.La(t0, "k_results");
  a.Addi(t0, t0, static_cast<int32_t>(8 * slot));
  a.Li(t1, value);
  a.AmoaddD(zero, t1, t0);
}

// One hart's request loop. Registers: s4 request countdown, s5 check value,
// s6 compute table, s7 inner countdown.
void EmitRequests(KernelBuilder& kb, const RequestGuest& guest, const std::string& prefix) {
  Assembler& a = kb.assembler();
  const WorkloadProfile& p = guest.profile;
  a.La(s6, "b_compute");
  a.Li(s4, guest.requests_per_hart);
  a.Li(s5, 0);
  a.Bind(prefix);
  a.Andi(t0, s4, RequestGuest::kComputeTable - 1);
  a.Slli(t0, t0, 3);
  a.Add(t0, t0, s6);
  a.Ld(s7, t0, 0);
  a.Bind(prefix + "_inner");
  for (unsigned i = 0; i < 16; ++i) {
    switch (i % 4) {
      case 0:
        a.Addi(s5, s5, 0x35);
        break;
      case 1:
        a.Xori(s5, s5, 0x5A);
        break;
      case 2:
        a.Slli(t0, s5, 1);
        a.Add(s5, s5, t0);
        break;
      default:
        a.Srli(t0, s5, 7);
        a.Xor(s5, s5, t0);
        break;
    }
  }
  a.Addi(s7, s7, -1);
  a.Bnez(s7, prefix + "_inner");
  for (unsigned i = 0; i < p.time_reads_per_request; ++i) {
    kb.EmitTimeRead();
    a.Add(s5, s5, a0);
  }
  for (unsigned i = 0; i < p.set_timers_per_request; ++i) {
    kb.EmitSetTimerRelative(2000);
  }
  if (p.ipis_per_request > 0) {
    if (p.ipi_every > 1) {
      a.Andi(t0, s4, static_cast<int32_t>(p.ipi_every - 1));
      a.Bnez(t0, prefix + "_no_ipi");
    }
    for (unsigned i = 0; i < p.ipis_per_request; ++i) {
      kb.EmitSendIpi(1);
    }
    a.Bind(prefix + "_no_ipi");
  }
  for (unsigned i = 0; i < p.rfences_per_request; ++i) {
    kb.EmitRemoteFence(1);
  }
  for (unsigned i = 0; i < p.misaligned_per_request; ++i) {
    kb.EmitMisalignedLoad();
  }
  a.Addi(s4, s4, -1);
  a.Beqz(s4, prefix + "_done");
  a.J(prefix);  // the loop body can exceed a conditional branch's reach
  a.Bind(prefix + "_done");
  EmitSlotAdd(kb, KernelSlots::kScratch, guest.requests_per_hart);
}

// `base` jittered by up to `spread` (a fraction) either way.
uint64_t Jitter(uint64_t base, double spread, SeedRng& rng) {
  const double value = static_cast<double>(base) * (1.0 + spread * rng.Signed());
  return std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(value)));
}

// `count` values, each within `spread` (a fraction) of `base`, whose sum is
// exactly count * base.
std::vector<uint64_t> BalancedJitter(uint64_t base, size_t count, double spread,
                                     SeedRng& rng) {
  VFM_CHECK(count > 0 && base > 0);
  const int64_t lo = std::max<int64_t>(1, std::llround(base * (1.0 - spread)));
  const int64_t hi = std::llround(base * (1.0 + spread));
  std::vector<int64_t> values(count);
  int64_t excess = -static_cast<int64_t>(base * count);
  for (int64_t& v : values) {
    v = std::clamp<int64_t>(static_cast<int64_t>(Jitter(base, spread, rng)), lo, hi);
    excess += v;
  }
  // Walk the excess back to zero one unit at a time, staying inside [lo, hi]:
  // the target mean `base` lies inside the range, so this always terminates.
  for (size_t i = 0; excess != 0; i = (i + 1) % count) {
    if (excess > 0 && values[i] > lo) {
      --values[i];
      --excess;
    } else if (excess < 0 && values[i] < hi) {
      ++values[i];
      ++excess;
    }
  }
  return std::vector<uint64_t>(values.begin(), values.end());
}

}  // namespace

uint64_t SeedRng::Next() {
  uint64_t x = (state_ += 0x9E3779B97F4A7C15ull);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double SeedRng::Signed() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-52 - 1.0;
}

CpuGuest MakeCpuGuest(uint64_t requests, uint64_t seed) {
  SeedRng rng(seed ^ 0xC0DE'0001ull);
  CpuGuest guest;
  guest.requests = requests;
  guest.compute_iters = BalancedJitter(kCpuComputeIters, kCpuPhases, kSpread, rng);
  guest.memory_iters = BalancedJitter(kCpuMemoryIters, kCpuPhases, kSpread, rng);
  return guest;
}

Image BuildCpuKernel(const PlatformProfile& platform, const CpuGuest& guest) {
  KernelConfig config = BaseKernelConfig(platform);
  config.enable_paging = true;
  KernelBuilder kb(config);
  Assembler& a = kb.assembler();
  a.Li(s9, guest.requests);
  a.Bind("b_cpu_req");
  for (size_t i = 0; i < guest.compute_iters.size(); ++i) {
    kb.EmitComputeLoop(guest.compute_iters[i], 64);
    kb.EmitMemoryLoop(guest.memory_iters[i]);
  }
  a.Addi(s9, s9, -1);
  a.Beqz(s9, "b_cpu_done");
  a.J("b_cpu_req");
  a.Bind("b_cpu_done");
  a.Mv(a0, s3);  // the last memory sweep's checksum: folds in every store before it
  kb.EmitStoreResult(KernelSlots::kScratch + 1);
  EmitSlotAdd(kb, KernelSlots::kScratch, guest.requests);
  kb.EmitFinish(/*pass=*/true);
  return kb.Finish();
}

RequestGuest MakeRequestGuest(const WorkloadProfile& profile, uint64_t requests_per_hart,
                              uint64_t seed) {
  SeedRng rng(seed ^ 0xC0DE'0002ull);
  RequestGuest guest;
  guest.profile = profile;
  guest.requests_per_hart = requests_per_hart;
  guest.timer_interval =
      profile.timer_interval == 0 ? 0 : Jitter(profile.timer_interval, kSpread, rng);
  guest.compute_table = BalancedJitter(profile.compute_per_request / 16,
                                       RequestGuest::kComputeTable, kSpread, rng);
  return guest;
}

Image BuildRequestKernel(const PlatformProfile& platform, const RequestGuest& guest) {
  const WorkloadProfile& p = guest.profile;
  KernelConfig config = BaseKernelConfig(platform);
  config.hart_count = p.harts;
  config.enable_paging = p.paging;
  config.use_sstc = p.use_sstc;
  config.timer_interval = guest.timer_interval;
  KernelBuilder kb(config);
  Assembler& a = kb.assembler();
  if (guest.timer_interval != 0) {
    kb.EmitSetTimerRelative(guest.timer_interval);
  }
  if (p.harts > 1) {
    kb.EmitStartSecondaries();
  }
  EmitRequests(kb, guest, "b_req");
  if (p.harts > 1) {
    kb.EmitWaitSlotAtLeast(KernelSlots::kJoinCounter, p.harts - 1);
  }
  a.Mv(a0, s5);
  kb.EmitStoreResult(KernelSlots::kScratch + 1);
  kb.EmitFinish(/*pass=*/true);

  a.Align(8);
  a.Bind("b_compute");
  for (const uint64_t iters : guest.compute_table) {
    a.Word64(iters);
  }

  if (p.harts > 1) {
    kb.DefineSecondaryMain();
    EmitRequests(kb, guest, "b_req2");
    kb.EmitAtomicIncrement(KernelSlots::kJoinCounter);
    kb.EmitSecondaryPark();
  }
  return kb.Finish();
}

}  // namespace vfm::bench
