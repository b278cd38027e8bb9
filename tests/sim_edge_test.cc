// Additional simulator edge cases: vectored trap entry, trap-virtualization controls
// (TW/TVM/TSR) exercised from guest code, counter gating end to end, superpage
// execution, multi-hart CLINT behaviour, and the line-granular invalidation of
// decoded code.

#include <gtest/gtest.h>

#include <utility>

#include "src/asm/assembler.h"
#include "src/common/bits.h"
#include "src/isa/csr.h"
#include "src/kernel/kernel.h"
#include "src/platform/platform.h"
#include "src/sim/machine.h"
#include "src/sim/mmu.h"
#include "src/workloads/workloads.h"

namespace vfm {
namespace {

constexpr uint64_t kBudget = 30'000'000;

// Runs a bare M-mode program built by `body` until ebreak or budget.
class BareRun {
 public:
  explicit BareRun(const std::function<void(Assembler&)>& body) {
    MachineConfig config;
    machine_ = std::make_unique<Machine>(config);
    Assembler a(0x8000'0000);
    body(a);
    a.Ebreak();
    Image image = std::move(a.Finish()).value();
    machine_->LoadImage(image.base, image.bytes);
    machine_->hart(0).set_pc(image.entry);
    for (int i = 0; i < 200000; ++i) {
      uint64_t word = 0;
      machine_->bus().Read(machine_->hart(0).pc(), 4, &word);
      if (Decode(static_cast<uint32_t>(word)).op == Op::kEbreak) {
        finished_ = true;
        return;
      }
      machine_->StepAll();
    }
  }

  bool finished() const { return finished_; }
  Hart& hart() { return machine_->hart(0); }

 private:
  std::unique_ptr<Machine> machine_;
  bool finished_ = false;
};

TEST(SimEdgeTest, VectoredInterruptEntryFromGuest) {
  // mtvec vectored: a machine-timer interrupt must vector to base + 4*7.
  MachineConfig config;
  Machine machine(config);
  Assembler a(0x8000'0000);
  a.Bind("_start");
  a.La(t0, "vector");
  a.Ori(t0, t0, 1);  // vectored mode
  a.Csrw(kCsrMtvec, t0);
  a.Li(t0, uint64_t{1} << 7);
  a.Csrw(kCsrMie, t0);
  a.Csrrsi(zero, kCsrMstatus, 8);  // MIE
  a.Bind("spin");
  a.J("spin");
  a.Align(64);
  a.Bind("vector");
  for (int i = 0; i < 7; ++i) {
    a.J("spin");  // exception + lower-interrupt slots
  }
  a.Bind("timer_slot");
  a.Li(s2, 0x77);
  a.Bind("hang");
  a.J("hang");
  Image image = std::move(a.Finish()).value();
  machine.LoadImage(image.base, image.bytes);
  machine.hart(0).set_pc(image.entry);
  machine.clint().set_mtimecmp(0, 10);
  machine.RunUntil([&] { return machine.hart(0).gpr(s2) == 0x77; }, 1'000'000);
  EXPECT_EQ(machine.hart(0).gpr(s2), 0x77u);
  EXPECT_EQ(machine.hart(0).csrs().Get(kCsrMcause), kInterruptBit | 7);
}

TEST(SimEdgeTest, TwMakesWfiTrapFromSupervisor) {
  BareRun run([](Assembler& a) {
    // Open PMP for S, set TW, drop to S at a wfi; expect an illegal trap back to M.
    a.Li(t0, ((uint64_t{1} << 55) >> 3) - 1);
    a.Csrw(CsrPmpaddr(0), t0);
    a.Li(t0, 0x1F);
    a.Csrw(CsrPmpcfg(0), t0);
    a.La(t0, "mtrap");
    a.Csrw(kCsrMtvec, t0);
    a.Li(t0, uint64_t{1} << 21);  // TW
    a.Csrs(kCsrMstatus, t0);
    a.La(t0, "s_code");
    a.Csrw(kCsrMepc, t0);
    a.Li(t0, uint64_t{1} << 11);  // MPP = S
    a.Csrs(kCsrMstatus, t0);
    a.Mret();
    a.Bind("s_code");
    a.Wfi();
    a.Bind("s_hang");
    a.J("s_hang");
    a.Align(4);
    a.Bind("mtrap");
    a.Csrr(s2, kCsrMcause);
  });
  ASSERT_TRUE(run.finished());
  EXPECT_EQ(run.hart().gpr(s2), CauseValue(ExceptionCause::kIllegalInstr));
}

TEST(SimEdgeTest, TvmMakesSatpTrapFromSupervisor) {
  BareRun run([](Assembler& a) {
    a.Li(t0, ((uint64_t{1} << 55) >> 3) - 1);
    a.Csrw(CsrPmpaddr(0), t0);
    a.Li(t0, 0x1F);
    a.Csrw(CsrPmpcfg(0), t0);
    a.La(t0, "mtrap");
    a.Csrw(kCsrMtvec, t0);
    a.Li(t0, uint64_t{1} << 20);  // TVM
    a.Csrs(kCsrMstatus, t0);
    a.La(t0, "s_code");
    a.Csrw(kCsrMepc, t0);
    a.Li(t0, uint64_t{1} << 11);
    a.Csrs(kCsrMstatus, t0);
    a.Mret();
    a.Bind("s_code");
    a.Csrr(t1, kCsrSatp);  // traps under TVM
    a.Bind("s_hang");
    a.J("s_hang");
    a.Align(4);
    a.Bind("mtrap");
    a.Csrr(s2, kCsrMcause);
  });
  ASSERT_TRUE(run.finished());
  EXPECT_EQ(run.hart().gpr(s2), CauseValue(ExceptionCause::kIllegalInstr));
}

TEST(SimEdgeTest, CounterGatingEndToEnd) {
  // With mcounteren.CY clear, a cycle read from S traps; after setting it, it works.
  BareRun run([](Assembler& a) {
    a.Li(t0, ((uint64_t{1} << 55) >> 3) - 1);
    a.Csrw(CsrPmpaddr(0), t0);
    a.Li(t0, 0x1F);
    a.Csrw(CsrPmpcfg(0), t0);
    a.La(t0, "mtrap");
    a.Csrw(kCsrMtvec, t0);
    a.Csrw(kCsrMcounteren, zero);
    a.La(t0, "s_code");
    a.Csrw(kCsrMepc, t0);
    a.Li(t0, uint64_t{1} << 11);
    a.Csrs(kCsrMstatus, t0);
    a.Li(s2, 0);
    a.Li(s3, 0);
    a.Mret();
    a.Bind("s_code");
    a.Csrr(s3, kCsrCycle);  // first attempt traps; the retry succeeds
    a.Ecall();              // report back to M-mode
    a.Bind("s_hang");
    a.J("s_hang");
    a.Align(4);
    a.Bind("mtrap");
    a.Csrr(t0, kCsrMcause);
    a.Li(t1, 9);
    a.Beq(t0, t1, "done");  // the ecall: finished
    a.Csrr(s2, kCsrMcause);  // the illegal read
    // Enable the counter and retry the same instruction.
    a.Li(t0, 1);
    a.Csrw(kCsrMcounteren, t0);
    a.Mret();  // back to the csrr, which now succeeds
    a.Bind("done");
  });
  ASSERT_TRUE(run.finished());
  EXPECT_EQ(run.hart().gpr(s2), CauseValue(ExceptionCause::kIllegalInstr));
  EXPECT_GT(run.hart().gpr(s3), 0u);  // the retried read returned a running counter
}

TEST(SimEdgeTest, PerHartClintComparators) {
  MachineConfig config;
  config.hart_count = 3;
  Machine machine(config);
  machine.clint().set_mtimecmp(0, 100);
  machine.clint().set_mtimecmp(1, 200);
  machine.clint().set_mtime(150);
  EXPECT_TRUE(machine.clint().MtipPending(0));
  EXPECT_FALSE(machine.clint().MtipPending(1));
  EXPECT_FALSE(machine.clint().MtipPending(2));  // reset comparator = all-ones
}

TEST(SimEdgeTest, GuestExecutesFromSuperpage) {
  // A kernel with Sv39 enabled keeps executing (its code sits in a 1 GiB leaf).
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  KernelConfig config;
  config.base = profile.kernel_base;
  config.enable_paging = true;
  KernelBuilder kb(config);
  kb.EmitComputeLoop(500, 16);
  kb.assembler().Mv(a0, s3);
  kb.EmitStoreResult(KernelSlots::kScratch);
  kb.EmitFinish(/*pass=*/true);
  System system = BootSystem(profile, DeployMode::kMiralis, kb.Finish());
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  EXPECT_EQ(system.machine->finisher().exit_code(), 0u);
  EXPECT_NE(system.ReadResult(KernelSlots::kScratch), 0u);
}

TEST(SimEdgeTest, InstretCountsRetiredOnly) {
  BareRun run([](Assembler& a) {
    a.Csrr(s2, kCsrMinstret);
    for (int i = 0; i < 10; ++i) {
      a.Nop();
    }
    a.Csrr(s3, kCsrMinstret);
  });
  ASSERT_TRUE(run.finished());
  // 10 nops + the second csrr itself minus measurement slack: exactly 11 retired
  // between the two reads.
  EXPECT_EQ(run.hart().gpr(s3) - run.hart().gpr(s2), 11u);
}

TEST(SimEdgeTest, SelfModifyingGuestCodeInvalidatesDecodeCache) {
  // The patch site executes twice: first its original form (s2 = 1), then — after the
  // guest stores a new instruction word over it — the patched form (s2 = 2). A stale
  // decoded-instruction cache entry would replay the original and leave s2 == 1.
  BareRun run([](Assembler& a) {
    a.La(t0, "patch");
    a.Bind("patch");
    a.Addi(s2, zero, 1);  // overwritten below with addi s2, zero, 2
    a.Bnez(s3, "done");
    a.Li(s3, 1);
    a.Li(t1, 0x00200913);  // addi s2, zero, 2
    a.Sw(t1, t0, 0);
    a.J("patch");
    a.Bind("done");
  });
  ASSERT_TRUE(run.finished());
  EXPECT_EQ(run.hart().gpr(s2), 2u);
}

// -- Software-TLB invalidation edge cases (DESIGN.md §2d). --------------------------

constexpr uint64_t kRamBase = 0x8000'0000;

// A machine running S-mode code under Sv39: an identity 1 GiB superpage over the RAM
// region (code and page tables are reachable through it) plus fine 4 KiB S-mode RW
// leaves L0[3]: VA 0x3000 -> kRamBase+0x5000 and L0[4]: VA 0x4000 -> kRamBase+0x6000.
// Tests pre-write instruction words with Put() and then Tick() through them, so no
// store ever lands in an already-executed (exec-marked) page mid-test.
class PagedHarness {
 public:
  static constexpr uint64_t kRoot = kRamBase + 0x1000;
  static constexpr uint64_t kCode = kRamBase + 0x8000;

  explicit PagedHarness(bool tlb_enabled = true, bool hw_misaligned = false) {
    MachineConfig config;
    config.tuning.tlb_entries = tlb_enabled ? 4096 : 0;
    config.isa.hw_misaligned = hw_misaligned;
    machine_ = std::make_unique<Machine>(config);
    hart_ = &machine_->hart(0);
    Bus& bus = machine_->bus();
    bus.Write(kRoot + 8 * 2, 8, ((kRamBase >> 12) << 10) | 0xCF);  // V R W X A D
    bus.Write(kRoot + 0, 8, (((kRamBase + 0x2000) >> 12) << 10) | 0x01);
    bus.Write(kRamBase + 0x2000, 8, (((kRamBase + 0x3000) >> 12) << 10) | 0x01);
    SetLeaf(3, kRamBase + 0x5000, 0xC7);  // V R W A D
    SetLeaf(4, kRamBase + 0x6000, 0xC7);
    hart_->csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
    hart_->csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
    hart_->csrs().Set(kCsrSatp, satp());
    hart_->set_priv(PrivMode::kSupervisor);
    hart_->set_pc(kCode);
  }

  void SetLeaf(unsigned index, uint64_t pa, uint64_t flags) {
    machine_->bus().Write(kRamBase + 0x3000 + 8 * index, 8, ((pa >> 12) << 10) | flags);
  }
  void Put(unsigned slot, uint32_t word) { machine_->bus().Write(kCode + 4 * slot, 4, word); }

  uint64_t satp() const { return (uint64_t{8} << 60) | (kRoot >> 12); }
  Machine& machine() { return *machine_; }
  Hart& hart() { return *hart_; }

 private:
  std::unique_ptr<Machine> machine_;
  Hart* hart_;
};

TEST(SimEdgeTest, PerAddressSfenceVmaLeavesOtherPagesCached) {
  PagedHarness h;
  Bus& bus = h.machine().bus();
  bus.Write(kRamBase + 0x5000, 8, 0x1111);
  bus.Write(kRamBase + 0x6000, 8, 0x2222);
  h.hart().set_gpr(5, 0x3000);  // t0
  h.hart().set_gpr(6, 0x4000);  // t1
  h.Put(0, 0x0002B383);         // ld t2, 0(t0)
  h.Put(1, 0x00033383);         // ld t2, 0(t1)
  h.Put(2, 0x12028073);         // sfence.vma t0, x0 — per-address form, VA 0x3000 only
  h.Put(3, 0x0002B383);         // ld t2, 0(t0)
  h.Put(4, 0x00033383);         // ld t2, 0(t1)
  h.hart().Tick();  // fetch miss + load miss (0x3000)
  h.hart().Tick();  // fetch hit + load miss (0x4000)
  EXPECT_EQ(h.hart().tlb_misses(), 3u);
  h.hart().Tick();  // the per-address sfence: one flush, only VA 0x3000 dropped
  EXPECT_EQ(h.hart().tlb_flushes(), 1u);
  h.hart().Tick();  // 0x3000 must re-walk…
  EXPECT_EQ(h.hart().tlb_misses(), 4u);
  h.hart().Tick();  // …but 0x4000 is still cached
  EXPECT_EQ(h.hart().tlb_misses(), 4u);
  EXPECT_EQ(h.hart().tlb_hits(), 5u);  // fetches of ticks 2–5 + the final load
  EXPECT_EQ(h.hart().gpr(7), 0x2222u);
}

TEST(SimEdgeTest, StoreIntoLivePageTableInvalidatesTlb) {
  // The OS rewrites a live PTE and immediately loads through the old mapping with no
  // sfence.vma in between. The pre-TLB simulator re-walked every access and saw the
  // new PTE at once; the TLB must preserve that behaviour via the PT-page marks.
  PagedHarness h;
  Bus& bus = h.machine().bus();
  bus.Write(kRamBase + 0x5000, 8, 0xAAAA);
  bus.Write(kRamBase + 0x6000, 8, 0xBBBB);
  h.hart().set_gpr(5, 0x3000);                                          // t0: the VA
  h.hart().set_gpr(6, kRamBase + 0x3000 + 8 * 3);                       // t1: L0[3], identity-mapped
  h.hart().set_gpr(29, (((kRamBase + 0x6000) >> 12) << 10) | 0xC7);     // t4: retargeted PTE
  h.Put(0, 0x0002B383);  // ld t2, 0(t0)
  h.Put(1, 0x01D33023);  // sd t4, 0(t1) — rewrite the live PTE
  h.Put(2, 0x0002B383);  // ld t2, 0(t0) — no sfence.vma
  h.hart().Tick();
  EXPECT_EQ(h.hart().gpr(7), 0xAAAAu);  // cached through the original mapping
  h.hart().Tick();
  h.hart().Tick();
  EXPECT_EQ(h.hart().gpr(7), 0xBBBBu);  // the stale entry was not served
  EXPECT_EQ(h.hart().tlb_flushes(), 0u);  // invalidated by the store, not a flush
}

TEST(SimEdgeTest, WriteAfterReadHitSetsDirtyBit) {
  // A read-cached clean (D=0) page: the read fill must not pre-set D, and a later
  // store must re-walk (separate store array) and perform the hardware D update.
  PagedHarness h;
  h.SetLeaf(5, kRamBase + 0x7000, 0x47);  // VA 0x5000: V R W A, D=0
  h.hart().set_gpr(5, 0x5000);            // t0
  h.hart().set_gpr(29, 0x77);             // t4
  h.Put(0, 0x0002B383);                   // ld t2, 0(t0)
  h.Put(1, 0x01D2B023);                   // sd t4, 0(t0)
  h.hart().Tick();
  uint64_t pte = 0;
  h.machine().bus().Read(kRamBase + 0x3000 + 8 * 5, 8, &pte);
  EXPECT_EQ(pte & PteBits::kDirty, 0u);  // the load cached the page but left it clean
  h.hart().Tick();
  h.machine().bus().Read(kRamBase + 0x3000 + 8 * 5, 8, &pte);
  EXPECT_NE(pte & PteBits::kDirty, 0u);  // the store walked and set D
  uint64_t stored = 0;
  h.machine().bus().Read(kRamBase + 0x7000, 8, &stored);
  EXPECT_EQ(stored, 0x77u);
}

TEST(SimEdgeTest, MprvEmulationWithPmpOverrideBypassesTlb) {
  // The monitor's MPRV emulation passes the firmware's virtual PMP bank. Such
  // accesses must not be served from entries the OS filled under the physical bank:
  // here the override bank denies everything, so the access must fault even though
  // the OS has VA 0x3000 hot in the TLB.
  PagedHarness h;
  h.hart().set_gpr(5, 0x3000);  // t0
  h.Put(0, 0x0002B383);         // ld t2, 0(t0) — warms the load TLB
  h.hart().Tick();
  const uint64_t hits = h.hart().tlb_hits();
  const uint64_t misses = h.hart().tlb_misses();
  PmpBank deny_all(8);  // entries implemented but all OFF: denies S/U accesses
  uint64_t value = 0;
  const Hart::MemResult denied =
      h.hart().ReadMemoryAs(PrivMode::kSupervisor, h.satp(), 0x3000, 8, &value, &deny_all);
  EXPECT_FALSE(denied.ok);
  EXPECT_EQ(denied.cause, ExceptionCause::kLoadAccessFault);
  EXPECT_EQ(h.hart().tlb_hits(), hits);      // not served from the OS entry
  EXPECT_EQ(h.hart().tlb_misses(), misses);  // not even counted as a lookup
  // The same access without an override is served by the TLB.
  const Hart::MemResult ok =
      h.hart().ReadMemoryAs(PrivMode::kSupervisor, h.satp(), 0x3000, 8, &value);
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(h.hart().tlb_hits(), hits + 1);
}

TEST(SimEdgeTest, MisalignedAccessSpanningPagesMatchesUncachedBehaviour) {
  // A 4-byte load at VA 0x3FFE spans VA pages 0x3000 (hot in the TLB) and 0x4000
  // (remapped, never cached). Translation — cached or walked — uses the first byte's
  // page only and the bus access is physically contiguous, so both machines must read
  // the same bytes and charge the same cycles.
  const auto run = [](bool tlb_enabled) {
    PagedHarness h(tlb_enabled, /*hw_misaligned=*/true);
    h.SetLeaf(4, kRamBase + 0x7000, 0xC7);  // VA 0x4000 -> a non-contiguous frame
    Bus& bus = h.machine().bus();
    bus.Write(kRamBase + 0x5FF8, 8, 0x1122334455667788);  // tail of VA 0x3000's frame
    bus.Write(kRamBase + 0x6000, 8, 0xAABBCCDDEEFF0011);  // physically next frame
    bus.Write(kRamBase + 0x7000, 8, 0x4242424242424242);  // where VA 0x4000 now maps
    h.hart().set_gpr(6, 0x3000);   // t1: warm-up address
    h.hart().set_gpr(5, 0x3FFE);   // t0: the spanning address
    h.Put(0, 0x00033383);          // ld t2, 0(t1) — caches VA page 0x3000 only
    h.Put(1, 0x0002A383);          // lw t2, 0(t0) — spans into the uncached page
    h.hart().Tick();
    h.hart().Tick();
    return std::make_pair(h.hart().gpr(7), h.hart().cycles());
  };
  const auto cached = run(true);
  const auto walked = run(false);
  EXPECT_EQ(cached, walked);
  // Bytes come from the physically contiguous frames 0x5FFE..0x6001, not VA 0x4000's
  // remapped frame: 22 11 | 11 00 little-endian.
  EXPECT_EQ(cached.first, 0x00111122u);
}

TEST(SimEdgeTest, LoadImageOverExecutedCodeInvalidatesDecodeCache) {
  MachineConfig config;
  Machine machine(config);
  Hart& hart = machine.hart(0);

  const auto build = [](uint64_t value) {
    Assembler a(0x8000'0000);
    a.Li(s2, value);
    a.Bind("hang");
    a.J("hang");
    return std::move(a.Finish()).value();
  };

  Image first = build(1);
  machine.LoadImage(first.base, first.bytes);
  hart.set_pc(first.entry);
  ASSERT_TRUE(machine.RunUntil([&] { return hart.gpr(s2) == 1; }, 10'000));

  // Re-load a different program over the range that just executed (a bootloader
  // re-loading a payload). The cached decodes for the old bytes must be dropped.
  Image second = build(2);
  machine.LoadImage(second.base, second.bytes);
  hart.set_pc(second.entry);
  ASSERT_TRUE(machine.RunUntil([&] { return hart.gpr(s2) == 2; }, 10'000));
  EXPECT_EQ(hart.gpr(s2), 2u);
}

// -- Line-granular decode-cache invalidation (DESIGN.md §2b). -----------------------

TEST(SimEdgeTest, StoreToAnotherLineOfExecutedPageKeepsDecodeCache) {
  // Data in the code's own 4 KiB page, one 64-byte line past the last instruction —
  // where every guest here keeps its trap frames. Storing to it must not drop the
  // page's cached decodes.
  MachineConfig config;
  Machine machine(config);
  Hart& hart = machine.hart(0);
  Assembler a(0x8000'0000);
  a.La(t0, "data");
  a.Li(t1, 100);
  a.Bind("loop");
  a.Sd(t1, t0, 0);
  a.Addi(t1, t1, -1);
  a.Bnez(t1, "loop");
  a.Li(s2, 1);
  a.Bind("hang");
  a.J("hang");
  a.Align(64);
  a.Bind("data");
  a.Word64(0);
  Image image = std::move(a.Finish()).value();
  const uint64_t data = image.Symbol("data");
  ASSERT_EQ(data >> 12, image.entry >> 12);
  ASSERT_EQ(data >> 6, (image.Symbol("hang") >> 6) + 1);  // the line after the code
  machine.LoadImage(image.base, image.bytes);
  hart.set_pc(image.entry);

  const uint64_t generation = machine.bus().code_generation();
  ASSERT_TRUE(machine.RunUntil([&] { return hart.gpr(s2) == 1; }, 10'000));
  hart.Tick();  // decodes `j hang`
  EXPECT_EQ(machine.bus().code_generation(), generation);
  EXPECT_EQ(hart.decode_cache_misses(), 8u);  // 8 instructions, each decoded once

  // A store to the data line between two fetches of decoded code: the next fetch
  // still hits.
  ASSERT_TRUE(machine.bus().Write(data, 8, 7));
  const uint64_t hits = hart.decode_cache_hits();
  const uint64_t misses = hart.decode_cache_misses();
  hart.Tick();  // j hang
  EXPECT_EQ(hart.decode_cache_hits(), hits + 1);
  EXPECT_EQ(hart.decode_cache_misses(), misses);
  EXPECT_EQ(machine.bus().code_generation(), generation);
}

TEST(SimEdgeTest, StoreToFetchWalkPteLineInvalidatesDecodeCache) {
  PagedHarness h;
  Bus& bus = h.machine().bus();
  h.Put(0, 0x00000013);  // nop
  const auto fetch_misses = [&h] {
    h.hart().set_pc(PagedHarness::kCode);
    h.hart().Tick();
    return h.hart().decode_cache_misses();
  };
  const uint64_t misses = fetch_misses();  // marks the nop's line and its walk's PTE line
  const uint64_t generation = bus.code_generation();

  // The fetch walk read only the root's superpage PTE (kRoot + 16, line 0). A store to
  // another line of the root page leaves the decode cached (it still bumps the TLBs:
  // PT marks are page-granular).
  const uint64_t pt_generation = bus.pt_generation();
  ASSERT_TRUE(bus.Write(PagedHarness::kRoot + 0x800, 8, 0));
  EXPECT_GT(bus.pt_generation(), pt_generation);
  EXPECT_EQ(bus.code_generation(), generation);
  EXPECT_EQ(fetch_misses(), misses);

  // A store into the PTE's own line (an unused slot next to it) drops the decode.
  ASSERT_TRUE(bus.Write(PagedHarness::kRoot + 8 * 5, 8, 0));
  EXPECT_EQ(bus.code_generation(), generation + 1);
  EXPECT_EQ(fetch_misses(), misses + 1);
}

TEST(SimEdgeTest, FormerlyMarkedLinesStopInvalidatingUntilCodeRunsAgain) {
  MachineConfig config;
  Machine machine(config);
  Assembler a(0x8000'0000);
  a.Li(s2, 1);
  a.Bind("hang");
  a.J("hang");
  Image image = std::move(a.Finish()).value();
  const uint64_t hang = image.Symbol("hang");
  machine.LoadImage(image.base, image.bytes);
  machine.hart(0).set_pc(image.entry);
  ASSERT_TRUE(machine.RunUntil([&] { return machine.hart(0).gpr(s2) == 1; }, 1'000));
  machine.hart(0).Tick();  // the hart now spins on the decoded `j hang`

  // Rewrites the executed word with itself and reports whether that invalidated.
  const auto store_invalidates = [hang](Machine& m) {
    uint64_t word = 0;
    m.bus().Read(hang, 4, &word);
    const uint64_t before = m.bus().code_generation();
    m.bus().Write(hang, 4, word);
    return m.bus().code_generation() != before;
  };

  // After an invalidation: the marks are gone until the code runs again.
  EXPECT_TRUE(store_invalidates(machine));
  EXPECT_FALSE(store_invalidates(machine));
  machine.hart(0).Tick();
  EXPECT_TRUE(store_invalidates(machine));

  // After RestoreSnapshot.
  machine.hart(0).Tick();
  Snapshot snapshot;
  machine.SaveSnapshot(snapshot);
  machine.hart(0).Tick();
  ASSERT_TRUE(machine.RestoreSnapshot(snapshot));
  EXPECT_FALSE(store_invalidates(machine));
  machine.hart(0).Tick();
  EXPECT_TRUE(store_invalidates(machine));

  // After Fork: the child starts unmarked; the parent keeps its marks.
  machine.hart(0).Tick();
  const std::unique_ptr<Machine> child = machine.Fork();
  EXPECT_FALSE(store_invalidates(*child));
  child->hart(0).Tick();
  EXPECT_TRUE(store_invalidates(*child));
  EXPECT_TRUE(store_invalidates(machine));
}

// Every guest here keeps hot data (trap frames, stacks, result slots, the fleet
// server's latency ring) right after its code, in the code's last page, and none
// writes its own code once loaded. So no guest store may invalidate decoded code:
// code_generation() stays where BootSystem left it. A count, not a timing, so it
// holds under every build preset.
TEST(SimEdgeTest, BootedGuestsNeverInvalidateDecodedCode) {
  const PlatformProfile platform = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  WorkloadProfile profile = RedisProfile();
  profile.requests = 200;
  for (const DeployMode mode :
       {DeployMode::kNative, DeployMode::kMiralis, DeployMode::kMiralisNoOffload}) {
    System system = BootSystem(platform, mode, BuildWorkloadKernel(platform, profile));
    Machine& m = *system.machine;
    const uint64_t generation = m.bus().code_generation();
    ASSERT_TRUE(m.RunUntilFinished(100'000'000));
    EXPECT_EQ(system.ReadResult(KernelSlots::kScratch), profile.requests);
    EXPECT_EQ(m.bus().code_generation(), generation)
        << "deploy mode " << static_cast<int>(mode) << ": "
        << m.bus().code_generation() - generation << " invalidations in "
        << m.total_instret() << " instructions";
  }

  // One fleet-server machine serving requests, stepped the way a fleet worker does.
  FleetServerLayout layout;
  System server = BootSystem(platform, DeployMode::kNative,
                             BuildFleetServerKernel(platform, MemcachedLatencyProfile(),
                                                    /*poll_interval_ticks=*/500, &layout));
  Machine& m = *server.machine;
  const uint64_t generation = m.bus().code_generation();
  constexpr unsigned kRequests = 16;
  m.InjectUartInput(std::string(kRequests, static_cast<char>(kFleetRequestByte)) +
                    std::string(1, static_cast<char>(kFleetShutdownByte)));
  bool finished = false;
  for (int i = 0; i < 100'000 && !finished; ++i) {
    const Machine::SliceResult r = m.RunSlice(20'000);
    finished = r.finished;
    uint64_t wake = 0;
    if (!finished && r.idle) {
      ASSERT_TRUE(m.NextDeadline(&wake));
      m.FastForwardIdleTo(wake);
    }
  }
  ASSERT_TRUE(finished);
  uint64_t completed = 0;
  ASSERT_TRUE(m.bus().Read(layout.completed_addr, 8, &completed));
  EXPECT_EQ(completed, kRequests);
  EXPECT_EQ(m.bus().code_generation(), generation)
      << m.bus().code_generation() - generation << " invalidations in "
      << m.total_instret() << " instructions";
}

}  // namespace
}  // namespace vfm
