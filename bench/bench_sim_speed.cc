// Host-side throughput microbenchmarks (google-benchmark): how fast the simulator
// and the monitor's hot paths run on the host. These are engineering benchmarks for
// the library itself, not paper reproductions, and guard against regressions in the
// interpreter and PMP-check fast paths that all the figure benches depend on.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/bench_util.h"
#include "src/common/log.h"
#include "src/core/vcpu.h"
#include "src/core/vpmp.h"
#include "src/kernel/kernel.h"
#include "src/platform/platform.h"

namespace vfm {
namespace {

void BM_InterpreterThroughput(benchmark::State& state) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  KernelConfig config;
  config.base = profile.kernel_base;
  KernelBuilder kb(config);
  kb.EmitComputeLoop(1'000'000'000, 16);  // effectively endless
  kb.EmitFinish(true);
  System system = BootSystem(profile, DeployMode::kNative, kb.Finish());
  // Skip firmware boot.
  system.machine->RunUntilFinished(20'000);
  uint64_t instructions = 0;
  for (auto _ : state) {
    const uint64_t before = system.machine->total_instret();
    system.machine->RunUntilFinished(100'000);
    instructions += system.machine->total_instret() - before;
  }
  state.counters["instr/s"] =
      benchmark::Counter(static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterThroughput)->Unit(benchmark::kMillisecond);

void BM_PmpCheck(benchmark::State& state) {
  PmpBank bank(8);
  PmpBank vpmp(VpmpLayout::VirtualEntries(8));
  vpmp.WriteAddrReg(0, 0x2000'0000);
  vpmp.WriteCfgReg(0, 0x1F);
  VpmpInputs inputs;
  inputs.monitor = {true, 0x8000'0000, 1 << 20, false, false, false};
  inputs.vdev = {true, 0x200'0000, 0x10000, false, false, false};
  ComputePhysicalPmp(vpmp, inputs, &bank);
  uint64_t addr = 0x8000'0000;
  bool sink = false;
  for (auto _ : state) {
    addr = addr * 1664525 + 1013904223;
    sink ^= bank.Check(addr & 0xFFFF'FFFF, 8, AccessType::kLoad, PrivMode::kSupervisor);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_PmpCheck);

void BM_PrivilegedEmulation(benchmark::State& state) {
  VirtContext vctx(VirtualHartIsa(HartIsaConfig{}), 0);
  uint64_t gprs[32] = {};
  const DecodedInstr instr = Decode(0x34011073);  // csrw mscratch, sp
  for (auto _ : state) {
    benchmark::DoNotOptimize(vctx.EmulatePrivileged(instr, gprs));
    vctx.set_priv(PrivMode::kMachine);
  }
}
BENCHMARK(BM_PrivilegedEmulation);

void BM_WorldSwitchPath(benchmark::State& state) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  KernelConfig config;
  config.base = profile.kernel_base;
  KernelBuilder kb(config);
  Assembler& a = kb.assembler();
  a.Bind("bm_loop");
  a.Li(a7, 0x10);  // BASE extension: never fast-pathed, always a world switch
  a.Li(a6, 0);
  a.Ecall();
  a.J("bm_loop");
  System system = BootSystem(profile, DeployMode::kMiralis, kb.Finish());
  system.machine->RunUntilFinished(20'000);  // reach the loop
  for (auto _ : state) {
    const uint64_t before = system.monitor->stats().world_switches;
    system.machine->RunUntil([&] {
      return system.monitor->stats().world_switches >= before + 10;
    }, 1'000'000);
  }
  state.counters["switches"] = static_cast<double>(system.monitor->stats().world_switches);
}
BENCHMARK(BM_WorldSwitchPath)->Unit(benchmark::kMicrosecond);

// Boots an N-hart native system whose harts all run an endless compute loop and
// returns the aggregate wall-clock MIPS of the quantum schedule (DESIGN.md §2i), run
// serially in hart order or with one host thread per hart (`parallel`). `batch`
// caps each hart's segment per quantum; 1 is the per-instruction form of the run
// loop.
double MeasureMultiHartMips(unsigned harts, bool parallel, uint32_t batch) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, harts, false);
  profile.machine.tuning.parallel_harts = parallel;
  profile.machine.tuning.max_batch_instructions = batch;
  KernelConfig config;
  config.base = profile.kernel_base;
  config.hart_count = harts;
  KernelBuilder kb(config);
  kb.EmitStartSecondaries();
  kb.EmitComputeLoop(1'000'000'000, 16);  // effectively endless
  kb.EmitFinish(true);
  kb.DefineSecondaryMain();
  kb.EmitComputeLoop(1'000'000'000, 16);
  kb.EmitSecondaryPark();
  System system = BootSystem(profile, DeployMode::kNative, kb.Finish());
  // Boot, bring every secondary online, and settle into the loops.
  system.machine->RunUntilFinished(2'000'000);
  // Per-instruction quanta are ~an order of magnitude slower; give them a smaller
  // measured budget so the bench stays quick.
  const uint64_t measured = batch > 1 ? 200'000'000 : 40'000'000;
  const uint64_t start = system.machine->total_instret();
  const auto t0 = std::chrono::steady_clock::now();
  system.machine->RunUntilFinished(measured);
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  const uint64_t instructions = system.machine->total_instret() - start;
  return seconds > 0 ? static_cast<double>(instructions) / seconds / 1e6 : 0.0;
}

// Dedicated timed run for the machine-readable result file: boots the same native
// compute loop as BM_InterpreterThroughput and measures wall-clock throughput plus
// the decoded-instruction cache hit rate over a fixed instruction count.
void WriteSimSpeedJson() {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  KernelConfig config;
  config.base = profile.kernel_base;
  KernelBuilder kb(config);
  kb.EmitComputeLoop(1'000'000'000, 16);  // effectively endless
  kb.EmitFinish(true);
  System system = BootSystem(profile, DeployMode::kNative, kb.Finish());
  system.machine->RunUntilFinished(20'000);  // skip boot: steady-state only

  const Hart& hart = system.machine->hart(0);
  const uint64_t start_instret = system.machine->total_instret();
  const uint64_t start_hits = hart.decode_cache_hits();
  const uint64_t start_misses = hart.decode_cache_misses();
  const uint64_t start_tlb_hits = hart.tlb_hits();
  const uint64_t start_tlb_misses = hart.tlb_misses();
  const uint64_t start_sb_hits = hart.superblock_hits();
  const uint64_t start_sb_misses = hart.superblock_misses();
  const uint64_t start_sb_blocks = hart.superblock_blocks();
  const uint64_t start_sb_instrs = hart.superblock_instrs();
  const uint64_t start_th_blocks = hart.threaded_blocks();
  const uint64_t start_th_instrs = hart.threaded_instrs();
  const uint64_t start_th_promotions = hart.threaded_promotions();
  const uint64_t start_th_deopts = hart.threaded_deopts();
  constexpr uint64_t kMeasured = 200'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  system.machine->RunUntilFinished(kMeasured);
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(t1 - t0).count();

  const uint64_t instructions = system.machine->total_instret() - start_instret;
  const uint64_t hits = hart.decode_cache_hits() - start_hits;
  const uint64_t misses = hart.decode_cache_misses() - start_misses;
  const uint64_t lookups = hits + misses;
  const uint64_t tlb_hits = hart.tlb_hits() - start_tlb_hits;
  const uint64_t tlb_lookups = tlb_hits + (hart.tlb_misses() - start_tlb_misses);
  const uint64_t sb_hits = hart.superblock_hits() - start_sb_hits;
  const uint64_t sb_lookups = sb_hits + (hart.superblock_misses() - start_sb_misses);
  const uint64_t sb_blocks = hart.superblock_blocks() - start_sb_blocks;
  const uint64_t sb_instrs = hart.superblock_instrs() - start_sb_instrs;
  const uint64_t th_blocks = hart.threaded_blocks() - start_th_blocks;
  const uint64_t th_instrs = hart.threaded_instrs() - start_th_instrs;

  // Multi-hart throughput matrix: the quantum schedule, serial and parallel, with
  // segments long enough that the barrier is noise (with no timers armed the
  // quantum horizon is the batch cap), against the same 4-hart machine at one
  // instruction per quantum (the CI gate compares parallel against it at equal
  // hart count). The short-segment pair caps quanta well below the worker pool's
  // crossover (Machine::kMinPooledSegment): parallel_harts must then run them in
  // hart order, as fast as the serial schedule, instead of paying a thread
  // handoff per quantum.
  constexpr uint32_t kLongSegments = 65536;
  constexpr uint32_t kShortSegments = 128;
  const double mips_per_instr_4h = MeasureMultiHartMips(4, false, 1);
  const double mips_quantum_2h = MeasureMultiHartMips(2, false, kLongSegments);
  const double mips_quantum_4h = MeasureMultiHartMips(4, false, kLongSegments);
  const double mips_quantum_8h = MeasureMultiHartMips(8, false, kLongSegments);
  const double mips_parallel_2h = MeasureMultiHartMips(2, true, kLongSegments);
  const double mips_parallel_4h = MeasureMultiHartMips(4, true, kLongSegments);
  const double mips_parallel_8h = MeasureMultiHartMips(8, true, kLongSegments);
  const double mips_quantum_4h_short = MeasureMultiHartMips(4, false, kShortSegments);
  const double mips_parallel_4h_short = MeasureMultiHartMips(4, true, kShortSegments);

  JsonResultWriter json("sim_speed");
  json.Add("instructions_retired", static_cast<double>(instructions));
  json.Add("seconds", seconds);
  json.Add("mips", seconds > 0 ? static_cast<double>(instructions) / seconds / 1e6 : 0.0);
  json.Add("decode_cache_hit_rate",
           lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0);
  json.Add("tlb_hit_rate",
           tlb_lookups > 0 ? static_cast<double>(tlb_hits) / static_cast<double>(tlb_lookups)
                           : 0.0);
  json.Add("superblock_hit_rate",
           sb_lookups > 0 ? static_cast<double>(sb_hits) / static_cast<double>(sb_lookups)
                          : 0.0);
  json.Add("mean_block_length",
           sb_blocks > 0 ? static_cast<double>(sb_instrs) / static_cast<double>(sb_blocks)
                         : 0.0);
  json.Add("threaded_hit_rate",
           instructions > 0 ? static_cast<double>(th_instrs) / static_cast<double>(instructions)
                            : 0.0);
  json.Add("promotions", static_cast<double>(hart.threaded_promotions() - start_th_promotions));
  json.Add("deopts", static_cast<double>(hart.threaded_deopts() - start_th_deopts));
  json.Add("mean_lowered_block_length",
           th_blocks > 0 ? static_cast<double>(th_instrs) / static_cast<double>(th_blocks)
                         : 0.0);
  json.Add("mips_per_instr_4h", mips_per_instr_4h);
  json.Add("mips_quantum_2h", mips_quantum_2h);
  json.Add("mips_quantum_4h", mips_quantum_4h);
  json.Add("mips_quantum_8h", mips_quantum_8h);
  json.Add("mips_parallel_2h", mips_parallel_2h);
  json.Add("mips_parallel_4h", mips_parallel_4h);
  json.Add("mips_parallel_8h", mips_parallel_8h);
  json.Add("mips_quantum_4h_short", mips_quantum_4h_short);
  json.Add("mips_parallel_4h_short", mips_parallel_4h_short);
  json.Add("parallel_per_hart_mips_4h", mips_parallel_4h / 4.0);
  json.Add("parallel_speedup_4h",
           mips_per_instr_4h > 0 ? mips_parallel_4h / mips_per_instr_4h : 0.0);
  const char* path = "BENCH_sim_speed.json";
  if (json.WriteTo(path)) {
    std::printf("wrote %s (%.1f MIPS)\n", path,
                seconds > 0 ? static_cast<double>(instructions) / seconds / 1e6 : 0.0);
  } else {
    std::fprintf(stderr, "failed to write %s\n", path);
  }
}

}  // namespace
}  // namespace vfm

int main(int argc, char** argv) {
  vfm::SetLogLevel(vfm::LogLevel::kError);  // warm-up budget warnings are expected
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  vfm::WriteSimSpeedJson();
  return 0;
}
