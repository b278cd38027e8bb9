// Software-TLB stress benchmark: a paging-heavy S-mode guest striding over 2048
// Sv39 pages (three-level fine mappings, no superpages on the data path) with a
// periodic full sfence.vma. bench_sim_speed's compute loop barely translates —
// this guest translates on every third instruction, so it measures the win where
// the TLB matters and pins down the ablation (`tuning.tlb_entries = 0`) cost.
// Emits BENCH_tlb_stress.json with both throughputs, the speedup, the hit rate,
// and a cycle-fidelity check (the TLB must not change simulated cycles).

#include <chrono>
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/asm/assembler.h"
#include "src/common/log.h"
#include "src/sim/machine.h"

namespace vfm {
namespace {

constexpr uint64_t kRamBase = 0x8000'0000;
constexpr uint64_t kRoot = kRamBase + 0x1000;
constexpr uint64_t kL1 = kRamBase + 0x2000;
constexpr uint64_t kL0 = kRamBase + 0x3000;  // four consecutive 4 KiB tables
constexpr uint64_t kDataPhys = kRamBase + 0x40'0000;
constexpr uint64_t kCodeBase = kRamBase + 0x10000;
constexpr unsigned kPages = 2048;
constexpr unsigned kSweepsPerFence = 64;

// Builds a machine whose hart runs an endless S-mode sweep: load one word from each
// of kPages fine-mapped pages, then repeat; every kSweepsPerFence sweeps, a full
// sfence.vma. Page tables are built host-side with A/D preset so the steady state
// performs no PTE writes.
std::unique_ptr<Machine> BuildMachine(bool tlb_enabled) {
  MachineConfig config;
  if (!tlb_enabled) {
    config.tuning.tlb_entries = 0;
  }
  // Host-speed measurement setup: batch as long as possible so the run loop's
  // per-batch bookkeeping does not drown the translation cost under test. The
  // guest never reads time and takes no interrupts, so stretching the timebase
  // tick is invisible to it (and identical for both runs).
  config.tuning.max_batch_instructions = 65536;
  config.cost.mtime_tick_cycles = 1'000'000'000;
  config.isa.pmp_entries = 16;  // P550-class bank, mostly populated (see below)
  auto machine = std::make_unique<Machine>(config);
  Bus& bus = machine->bus();

  // Identity 1 GiB superpage over RAM for the code, plus root[0] -> L1 -> four L0
  // tables fine-mapping VA [0, kPages * 4 KiB) onto frames at kDataPhys.
  bus.Write(kRoot + 8 * 2, 8, ((kRamBase >> 12) << 10) | 0xCF);  // V R W X A D
  bus.Write(kRoot + 0, 8, ((kL1 >> 12) << 10) | 0x01);
  for (unsigned t = 0; t < 4; ++t) {
    bus.Write(kL1 + 8 * t, 8, (((kL0 + t * 0x1000) >> 12) << 10) | 0x01);
  }
  // Every virtual page maps the same physical frame: the bench measures address
  // translation, not data-cache behaviour, so the data working set stays hot and
  // the page walk (or its absence) is the only per-load cost that varies.
  for (unsigned i = 0; i < kPages; ++i) {
    bus.Write(kL0 + 8 * i, 8, ((kDataPhys >> 12) << 10) | 0xC7);  // V R W A D
  }

  // Dense translation mix: eight base registers, two loads per base (the -2048
  // immediate reaches the previous page), so one loop iteration touches 16
  // distinct pages with only 9 non-load instructions of overhead.
  Assembler a(kCodeBase);
  a.Li(t1, uint64_t{kPages} * 4096);
  a.Li(t4, 16 * 4096);  // iteration stride: 16 pages
  a.Li(s3, 0);          // sweep counter
  constexpr Reg kBases[8] = {a0, a1, a2, a3, a4, a5, a6, a7};
  a.Bind("sweep");
  for (unsigned k = 0; k < 8; ++k) {
    a.Li(kBases[k], (2 * k + 1) * 4096);
  }
  a.Bind("page");
  for (unsigned k = 0; k < 8; ++k) {
    a.Ld(t2, kBases[k], -2048);
    a.Ld(t2, kBases[k], 0);
  }
  for (unsigned k = 0; k < 8; ++k) {
    a.Add(kBases[k], kBases[k], t4);
  }
  a.Blt(a0, t1, "page");
  a.Addi(s3, s3, 1);
  a.Andi(t3, s3, kSweepsPerFence - 1);
  a.Bnez(t3, "sweep");
  a.SfenceVma();
  a.J("sweep");
  Image image = std::move(a.Finish()).value();
  machine->LoadImage(image.base, image.bytes);

  Hart& hart = machine->hart(0);
  // PMP layout shaped like a monitor-managed bank: device/domain windows in the
  // low-priority... er, low-index entries, catch-all last. Every S-mode access
  // (and every PTE read during a walk) scans past the specific windows before
  // matching the final allow-all entry, as it would under the deployed monitor.
  PmpBank& pmp = hart.csrs().pmp();
  for (unsigned i = 0; i + 1 < pmp.entry_count(); ++i) {
    const uint64_t base = 0x40'0000'0000 + uint64_t{i} * 0x10000;  // unused window
    pmp.SetCfg(i, PmpCfg::FromByte(0x1F));                         // NAPOT R W X
    pmp.SetAddr(i, (base >> 2) | 0x1FF);                           // 4 KiB range
  }
  pmp.SetCfg(pmp.entry_count() - 1, PmpCfg::FromByte(0x1F));
  pmp.SetAddr(pmp.entry_count() - 1, ~uint64_t{0} >> 10);
  hart.csrs().Set(kCsrSatp, (uint64_t{8} << 60) | (kRoot >> 12));
  hart.set_priv(PrivMode::kSupervisor);
  hart.set_pc(image.entry);
  return machine;
}

struct RunStats {
  double mips = 0;
  double hit_rate = 0;
  uint64_t instructions = 0;
  uint64_t cycles = 0;
};

RunStats Measure(bool tlb_enabled) {
  std::unique_ptr<Machine> machine = BuildMachine(tlb_enabled);
  machine->RunUntilFinished(200'000);  // warm-up: first sweeps, caches filled
  const Hart& hart = machine->hart(0);
  const uint64_t start_instret = machine->total_instret();
  const uint64_t start_cycles = hart.cycles();
  const uint64_t start_hits = hart.tlb_hits();
  const uint64_t start_misses = hart.tlb_misses();
  constexpr uint64_t kMeasured = 20'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  machine->RunUntilFinished(kMeasured);
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(t1 - t0).count();

  RunStats stats;
  stats.instructions = machine->total_instret() - start_instret;
  stats.cycles = hart.cycles() - start_cycles;
  stats.mips = seconds > 0 ? static_cast<double>(stats.instructions) / seconds / 1e6 : 0.0;
  const uint64_t lookups = (hart.tlb_hits() - start_hits) + (hart.tlb_misses() - start_misses);
  stats.hit_rate = lookups > 0
                       ? static_cast<double>(hart.tlb_hits() - start_hits) /
                             static_cast<double>(lookups)
                       : 0.0;
  return stats;
}

int Run() {
  const RunStats with_tlb = Measure(/*tlb_enabled=*/true);
  const RunStats without_tlb = Measure(/*tlb_enabled=*/false);
  const double speedup = without_tlb.mips > 0 ? with_tlb.mips / without_tlb.mips : 0.0;
  // Both runs execute the same guest for the same instruction budget; identical
  // retirement and cycle counts confirm the TLB changed nothing but host speed.
  const bool cycles_identical = with_tlb.instructions == without_tlb.instructions &&
                                with_tlb.cycles == without_tlb.cycles;

  JsonResultWriter json("tlb_stress");
  json.Add("mips_tlb", with_tlb.mips);
  json.Add("mips_no_tlb", without_tlb.mips);
  json.Add("speedup", speedup);
  json.Add("tlb_hit_rate", with_tlb.hit_rate);
  json.Add("instructions_retired", static_cast<double>(with_tlb.instructions));
  json.Add("cycles_identical", cycles_identical ? 1.0 : 0.0);
  const char* path = "BENCH_tlb_stress.json";
  if (!json.WriteTo(path)) {
    std::fprintf(stderr, "failed to write %s\n", path);
    return 1;
  }
  std::printf("wrote %s (%.1f MIPS with TLB, %.1f without, %.2fx, hit rate %.4f%s)\n", path,
              with_tlb.mips, without_tlb.mips, speedup, with_tlb.hit_rate,
              cycles_identical ? "" : ", CYCLE MISMATCH");
  return cycles_identical ? 0 : 1;
}

}  // namespace
}  // namespace vfm

int main() {
  vfm::SetLogLevel(vfm::LogLevel::kError);  // budget-exhausted warnings are expected
  return vfm::Run();
}
