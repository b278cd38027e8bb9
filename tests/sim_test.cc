// Unit tests for the hart simulator: CSR access rules, trap entry and delegation,
// xRET, interrupts, WFI, Sv39 translation, PMP enforcement, and the MPRV path.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "src/asm/assembler.h"
#include "src/common/bits.h"
#include "src/common/state.h"
#include "src/kernel/kernel.h"
#include "src/platform/platform.h"
#include "src/sim/machine.h"
#include "src/sim/mmu.h"

namespace vfm {
namespace {

class SimTest : public ::testing::Test {
 protected:
  SimTest() {
    MachineConfig config;
    config.hart_count = 1;
    machine_ = std::make_unique<Machine>(config);
    hart_ = &machine_->hart(0);
  }

  // Executes one instruction word at the current pc/priv.
  StepResult Exec(uint32_t word) {
    machine_->bus().Write(hart_->pc(), 4, word);
    return hart_->Tick();
  }

  std::unique_ptr<Machine> machine_;
  Hart* hart_;
};

constexpr uint64_t kRam = 0x8000'0000;

TEST_F(SimTest, ResetState) {
  EXPECT_EQ(hart_->priv(), PrivMode::kMachine);
  EXPECT_EQ(hart_->gpr(0), 0u);
  EXPECT_EQ(hart_->csrs().Get(kCsrMisa) & MisaBit('S'), MisaBit('S'));
  EXPECT_EQ(ExtractBits(hart_->csrs().mstatus(), 33, 32), 2u);  // UXL = 64-bit
}

TEST_F(SimTest, GprZeroHardwired) {
  hart_->set_gpr(0, 1234);
  EXPECT_EQ(hart_->gpr(0), 0u);
}

TEST_F(SimTest, CsrReadWriteMachine) {
  hart_->set_pc(kRam);
  hart_->set_gpr(5, 0xABCD);  // t0
  // csrrw x6, mscratch, x5
  Exec(0x34029373);
  EXPECT_EQ(hart_->csrs().Get(kCsrMscratch), 0xABCDu);
  EXPECT_EQ(hart_->pc(), kRam + 4);
}

TEST_F(SimTest, CsrAccessFromUserTraps) {
  hart_->set_pc(kRam);
  hart_->csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
  hart_->csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
  hart_->set_priv(PrivMode::kUser);
  const StepResult result = Exec(0x34029373);  // csrrw on mscratch from U
  EXPECT_TRUE(result.trapped);
  EXPECT_EQ(result.trap_cause, CauseValue(ExceptionCause::kIllegalInstr));
  EXPECT_EQ(hart_->priv(), PrivMode::kMachine);
  EXPECT_EQ(hart_->csrs().Get(kCsrMepc), kRam);
  EXPECT_EQ(hart_->csrs().Get(kCsrMtval), 0x34029373u);
}

TEST_F(SimTest, TimeCsrTrapsWhenAbsent) {
  hart_->set_pc(kRam);
  const StepResult result = Exec(0xC0102573);  // csrr a0, time (rdtime)
  EXPECT_TRUE(result.trapped);
  EXPECT_EQ(result.trap_cause, CauseValue(ExceptionCause::kIllegalInstr));
}

TEST_F(SimTest, TrapEntrySetsStatusStack) {
  hart_->set_pc(kRam);
  uint64_t mstatus = hart_->csrs().mstatus();
  mstatus = SetBit(mstatus, MstatusBits::kMie, 1);
  hart_->csrs().set_mstatus(mstatus);
  hart_->csrs().Set(kCsrMtvec, kRam + 0x100);
  hart_->TakeTrap(CauseValue(ExceptionCause::kBreakpoint), 0x42);
  mstatus = hart_->csrs().mstatus();
  EXPECT_EQ(Bit(mstatus, MstatusBits::kMie), 0u);
  EXPECT_EQ(Bit(mstatus, MstatusBits::kMpie), 1u);
  EXPECT_EQ(ExtractBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo), 3u);
  EXPECT_EQ(hart_->csrs().Get(kCsrMcause), 3u);
  EXPECT_EQ(hart_->csrs().Get(kCsrMtval), 0x42u);
  EXPECT_EQ(hart_->pc(), kRam + 0x100);
}

TEST_F(SimTest, DelegatedTrapGoesToSupervisor) {
  hart_->csrs().Set(kCsrMedeleg, uint64_t{1} << 8);  // delegate ecall-from-U
  hart_->csrs().Set(kCsrStvec, kRam + 0x200);
  hart_->csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
  hart_->csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
  hart_->set_priv(PrivMode::kUser);
  hart_->set_pc(kRam);
  const StepResult result = Exec(0x00000073);  // ecall
  EXPECT_TRUE(result.trapped);
  EXPECT_EQ(result.trap_target, PrivMode::kSupervisor);
  EXPECT_FALSE(result.entered_mmode);
  EXPECT_EQ(hart_->priv(), PrivMode::kSupervisor);
  EXPECT_EQ(hart_->csrs().Get(kCsrScause), 8u);
  EXPECT_EQ(hart_->csrs().Get(kCsrSepc), kRam);
  EXPECT_EQ(hart_->pc(), kRam + 0x200);
  EXPECT_EQ(Bit(hart_->csrs().mstatus(), MstatusBits::kSpp), 0u);  // from U
}

TEST_F(SimTest, EcallCausesByPriv) {
  hart_->set_pc(kRam);
  EXPECT_EQ(Exec(0x00000073).trap_cause, CauseValue(ExceptionCause::kEcallFromM));
  hart_->set_priv(PrivMode::kSupervisor);
  hart_->set_pc(kRam);
  hart_->csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
  hart_->csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
  EXPECT_EQ(Exec(0x00000073).trap_cause, CauseValue(ExceptionCause::kEcallFromS));
}

TEST_F(SimTest, MretRestoresPrivAndPc) {
  hart_->csrs().Set(kCsrMepc, kRam + 0x40);
  uint64_t mstatus = hart_->csrs().mstatus();
  mstatus = InsertBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo, 1);  // S
  mstatus = SetBit(mstatus, MstatusBits::kMpie, 1);
  mstatus = SetBit(mstatus, MstatusBits::kMprv, 1);
  hart_->csrs().set_mstatus(mstatus);
  hart_->set_pc(kRam);
  Exec(0x30200073);  // mret
  EXPECT_EQ(hart_->priv(), PrivMode::kSupervisor);
  EXPECT_EQ(hart_->pc(), kRam + 0x40);
  mstatus = hart_->csrs().mstatus();
  EXPECT_EQ(Bit(mstatus, MstatusBits::kMie), 1u);   // from MPIE
  EXPECT_EQ(Bit(mstatus, MstatusBits::kMprv), 0u);  // cleared: target < M
  EXPECT_EQ(ExtractBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo), 0u);
}

TEST_F(SimTest, MretFromSupervisorIsIllegal) {
  hart_->csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
  hart_->csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
  hart_->set_priv(PrivMode::kSupervisor);
  hart_->set_pc(kRam);
  const StepResult result = Exec(0x30200073);
  EXPECT_TRUE(result.trapped);
  EXPECT_EQ(result.trap_cause, CauseValue(ExceptionCause::kIllegalInstr));
}

TEST_F(SimTest, SretHonorsTsr) {
  hart_->csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
  hart_->csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
  uint64_t mstatus = hart_->csrs().mstatus();
  mstatus = SetBit(mstatus, MstatusBits::kTsr, 1);
  hart_->csrs().set_mstatus(mstatus);
  hart_->set_priv(PrivMode::kSupervisor);
  hart_->set_pc(kRam);
  const StepResult result = Exec(0x10200073);  // sret
  EXPECT_TRUE(result.trapped);
  EXPECT_EQ(result.trap_cause, CauseValue(ExceptionCause::kIllegalInstr));
}

TEST_F(SimTest, InterruptPriorityAndDelegation) {
  CsrFile& csrs = hart_->csrs();
  csrs.Set(kCsrMie, (uint64_t{1} << 7) | (uint64_t{1} << 5) | (uint64_t{1} << 1));
  csrs.Set(kCsrMideleg, 0x222);
  csrs.SetInterruptLine(InterruptCause::kMachineTimer, true);
  csrs.set_mip_sw(uint64_t{1} << 5);  // STIP also pending
  // From S-mode: MTI (not delegated) wins over STI.
  hart_->set_priv(PrivMode::kSupervisor);
  EXPECT_EQ(hart_->PendingInterrupt().value_or(0), CauseValue(InterruptCause::kMachineTimer));
  // Clear MTI: STI remains, delegated, requires SIE in S-mode.
  csrs.SetInterruptLine(InterruptCause::kMachineTimer, false);
  EXPECT_FALSE(hart_->PendingInterrupt().has_value());
  csrs.set_mstatus(SetBit(csrs.mstatus(), MstatusBits::kSie, 1));
  EXPECT_EQ(hart_->PendingInterrupt().value_or(0),
            CauseValue(InterruptCause::kSupervisorTimer));
  // From U-mode the delegated interrupt fires regardless of SIE.
  csrs.set_mstatus(SetBit(csrs.mstatus(), MstatusBits::kSie, 0));
  hart_->set_priv(PrivMode::kUser);
  EXPECT_TRUE(hart_->PendingInterrupt().has_value());
}

TEST_F(SimTest, MachineInterruptMaskedByMieBit) {
  CsrFile& csrs = hart_->csrs();
  csrs.SetInterruptLine(InterruptCause::kMachineTimer, true);
  csrs.Set(kCsrMie, 0);
  EXPECT_FALSE(hart_->PendingInterrupt().has_value());
  csrs.Set(kCsrMie, uint64_t{1} << 7);
  // In M-mode, mstatus.MIE gates machine interrupts.
  EXPECT_FALSE(hart_->PendingInterrupt().has_value());
  csrs.set_mstatus(SetBit(csrs.mstatus(), MstatusBits::kMie, 1));
  EXPECT_TRUE(hart_->PendingInterrupt().has_value());
}

TEST_F(SimTest, WfiParksAndWakes) {
  hart_->set_pc(kRam);
  Exec(0x10500073);  // wfi
  EXPECT_TRUE(hart_->waiting());
  EXPECT_EQ(hart_->pc(), kRam + 4);
  // Parked: ticks do nothing until an enabled interrupt is pending.
  StepResult result = hart_->Tick();
  EXPECT_TRUE(result.waiting);
  hart_->csrs().Set(kCsrMie, uint64_t{1} << 7);
  hart_->csrs().SetInterruptLine(InterruptCause::kMachineTimer, true);
  machine_->bus().Write(kRam + 4, 4, 0x00000013);  // nop at resume point
  result = hart_->Tick();
  EXPECT_FALSE(result.waiting);
  EXPECT_FALSE(hart_->waiting());
}

TEST_F(SimTest, MisalignedLoadTrapsWithAddress) {
  hart_->set_pc(kRam);
  hart_->set_gpr(6, kRam + 0x101);  // t1
  // lw t0, 0(t1)
  const StepResult result = Exec(0x00032283);
  EXPECT_TRUE(result.trapped);
  EXPECT_EQ(result.trap_cause, CauseValue(ExceptionCause::kLoadAddrMisaligned));
  EXPECT_EQ(hart_->csrs().Get(kCsrMtval), kRam + 0x101);
}

TEST_F(SimTest, LoadSignExtension) {
  hart_->set_pc(kRam);
  machine_->bus().Write(kRam + 0x100, 8, 0xFFFF'FFFF'FFFF'FF80ull);
  hart_->set_gpr(6, kRam + 0x100);
  Exec(0x00030283);  // lb t0, 0(t1)
  EXPECT_EQ(hart_->gpr(5), 0xFFFF'FFFF'FFFF'FF80ull);
  hart_->set_pc(kRam);
  Exec(0x00034283);  // lbu t0, 0(t1)
  EXPECT_EQ(hart_->gpr(5), 0x80u);
}

TEST_F(SimTest, PmpDeniesSupervisorLoad) {
  // One NAPOT entry covering RAM with X-only.
  CsrFile& csrs = hart_->csrs();
  csrs.pmp().SetCfg(0, PmpCfg::FromByte(0x1C));  // NAPOT, X only
  csrs.pmp().SetAddr(0, ~uint64_t{0} >> 10);
  hart_->set_priv(PrivMode::kSupervisor);
  hart_->set_pc(kRam);
  hart_->set_gpr(6, kRam + 0x100);
  const StepResult result = Exec(0x00033283);  // ld t0, 0(t1)
  EXPECT_TRUE(result.trapped);
  EXPECT_EQ(result.trap_cause, CauseValue(ExceptionCause::kLoadAccessFault));
}

TEST_F(SimTest, MprvUsesMppForDataAccess) {
  CsrFile& csrs = hart_->csrs();
  // PMP: everything X-only (denies S loads), so an MPRV load from M with MPP=S faults.
  csrs.pmp().SetCfg(0, PmpCfg::FromByte(0x1C));
  csrs.pmp().SetAddr(0, ~uint64_t{0} >> 10);
  uint64_t mstatus = csrs.mstatus();
  mstatus = SetBit(mstatus, MstatusBits::kMprv, 1);
  mstatus = InsertBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo, 1);
  csrs.set_mstatus(mstatus);
  hart_->set_pc(kRam);
  hart_->set_gpr(6, kRam + 0x100);
  const StepResult result = Exec(0x00033283);  // ld t0, 0(t1)
  EXPECT_TRUE(result.trapped);
  EXPECT_EQ(result.trap_cause, CauseValue(ExceptionCause::kLoadAccessFault));
}

// ---- Sv39 translation. --------------------------------------------------------

class MmuTest : public ::testing::Test {
 protected:
  MmuTest() : bus_(kRam, 16 << 20), pmp_(0) {
    // Root table at kRam; map VA 0x4000_0000 (1 GiB region 1) to PA kRam via a 1 GiB
    // superpage, and a 4 KiB fine mapping under region 0.
    root_ = kRam;
    const uint64_t giga_pte = ((kRam >> 12) << 10) | 0xCF;  // V R W X A D
    bus_.Write(root_ + 8 * 1, 8, giga_pte);
    // Region 0: two-level walk to a 4 KiB page: L2[0] -> table at kRam+0x1000,
    // L1[0] -> table at kRam+0x2000, L0[3] -> PA kRam+0x5000.
    bus_.Write(root_ + 0, 8, (((kRam + 0x1000) >> 12) << 10) | 0x01);
    bus_.Write(kRam + 0x1000, 8, (((kRam + 0x2000) >> 12) << 10) | 0x01);
    bus_.Write(kRam + 0x2000 + 8 * 3, 8, (((kRam + 0x5000) >> 12) << 10) | 0xDF);  // RW, U
    params_.satp = (uint64_t{8} << 60) | (root_ >> 12);
    params_.priv = PrivMode::kSupervisor;
  }

  Bus bus_;
  PmpBank pmp_;  // zero entries: machine-permissive, S/U... no entries -> deny!
  uint64_t root_;
  TranslateParams params_;
};

TEST_F(MmuTest, BareModePassThrough) {
  TranslateParams bare;
  bare.satp = 0;
  bare.priv = PrivMode::kSupervisor;
  const TranslateResult result = TranslateSv39(&bus_, pmp_, bare, 0x1234, AccessType::kLoad);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.paddr, 0x1234u);
}

TEST_F(MmuTest, GigapageTranslation) {
  const TranslateResult result =
      TranslateSv39(&bus_, pmp_, params_, 0x4000'0123, AccessType::kLoad);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.paddr, kRam + 0x123);
  EXPECT_EQ(result.walk_levels, 1u);
}

TEST_F(MmuTest, FourKbWalk) {
  TranslateParams user = params_;
  user.priv = PrivMode::kUser;  // the 4 KiB leaf is a user page
  const TranslateResult result =
      TranslateSv39(&bus_, pmp_, user, 0x3000 + 0x45, AccessType::kStore);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.paddr, kRam + 0x5000 + 0x45);
  EXPECT_EQ(result.walk_levels, 3u);
}

TEST_F(MmuTest, AdBitsUpdatedInMemory) {
  // Install a clean PTE (no A/D) and verify the hardware-update behaviour.
  bus_.Write(kRam + 0x2000 + 8 * 3, 8, (((kRam + 0x5000) >> 12) << 10) | 0x17);  // V R W U
  TranslateParams user = params_;
  user.priv = PrivMode::kUser;
  ASSERT_TRUE(TranslateSv39(&bus_, pmp_, user, 0x3000, AccessType::kLoad).ok);
  uint64_t pte = 0;
  bus_.Read(kRam + 0x2000 + 8 * 3, 8, &pte);
  EXPECT_NE(pte & PteBits::kAccessed, 0u);
  EXPECT_EQ(pte & PteBits::kDirty, 0u);  // loads set A only
  ASSERT_TRUE(TranslateSv39(&bus_, pmp_, user, 0x3000, AccessType::kStore).ok);
  bus_.Read(kRam + 0x2000 + 8 * 3, 8, &pte);
  EXPECT_NE(pte & PteBits::kDirty, 0u);
}

TEST_F(MmuTest, UserPageBlockedForSupervisorWithoutSum) {
  const TranslateResult no_sum =
      TranslateSv39(&bus_, pmp_, params_, 0x3000, AccessType::kLoad);
  EXPECT_FALSE(no_sum.ok);
  EXPECT_EQ(no_sum.fault, ExceptionCause::kLoadPageFault);
  TranslateParams with_sum = params_;
  with_sum.sum = true;
  EXPECT_TRUE(TranslateSv39(&bus_, pmp_, with_sum, 0x3000, AccessType::kLoad).ok);
  // Fetch from a user page is never allowed for S, SUM or not.
  EXPECT_FALSE(TranslateSv39(&bus_, pmp_, with_sum, 0x3000, AccessType::kFetch).ok);
}

TEST_F(MmuTest, UserAccessToUserPage) {
  TranslateParams user = params_;
  user.priv = PrivMode::kUser;
  EXPECT_TRUE(TranslateSv39(&bus_, pmp_, user, 0x3000, AccessType::kLoad).ok);
  // The gigapage is not U-accessible.
  EXPECT_FALSE(TranslateSv39(&bus_, pmp_, user, 0x4000'0000, AccessType::kLoad).ok);
}

TEST_F(MmuTest, NonCanonicalAddressFaults) {
  const TranslateResult result =
      TranslateSv39(&bus_, pmp_, params_, uint64_t{1} << 45, AccessType::kLoad);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.fault, ExceptionCause::kLoadPageFault);
  // But sign-extended canonical high addresses walk normally (and miss here).
  const TranslateResult high = TranslateSv39(&bus_, pmp_, params_,
                                             0xFFFF'FFC0'0000'0000ull, AccessType::kLoad);
  EXPECT_FALSE(high.ok);  // unmapped, still a page fault (not a crash)
}

TEST_F(MmuTest, InvalidAndReservedPtes) {
  bus_.Write(root_ + 8 * 2, 8, 0x2 | 0x4);  // W without R, V=0 too
  EXPECT_FALSE(TranslateSv39(&bus_, pmp_, params_, 0x8000'0000ull, AccessType::kLoad).ok);
  bus_.Write(root_ + 8 * 2, 8, 0x1 | 0x4);  // V=1, W=1, R=0: reserved
  EXPECT_FALSE(TranslateSv39(&bus_, pmp_, params_, 0x8000'0000ull, AccessType::kLoad).ok);
}

TEST_F(MmuTest, MisalignedSuperpageFaults) {
  // A 1 GiB leaf whose ppn low bits are nonzero is a misaligned superpage.
  bus_.Write(root_ + 8 * 2, 8, (((kRam + 0x1000) >> 12) << 10) | 0xCF);
  EXPECT_FALSE(TranslateSv39(&bus_, pmp_, params_, 0x8000'0000ull, AccessType::kLoad).ok);
}

// -- Decoded-instruction cache invalidation (DESIGN.md §2b). ------------------------

TEST_F(SimTest, DecodeCacheHitsOnReexecution) {
  hart_->set_pc(kRam);
  machine_->bus().Write(kRam, 4, 0x00100293);  // addi t0, zero, 1
  hart_->Tick();
  EXPECT_EQ(hart_->decode_cache_misses(), 1u);
  EXPECT_EQ(hart_->decode_cache_hits(), 0u);
  hart_->set_pc(kRam);
  hart_->Tick();
  EXPECT_EQ(hart_->decode_cache_misses(), 1u);
  EXPECT_EQ(hart_->decode_cache_hits(), 1u);
  EXPECT_EQ(hart_->gpr(5), 1u);
}

TEST_F(SimTest, StoreIntoExecutedPageInvalidatesDecodeCache) {
  hart_->set_pc(kRam);
  Exec(0x00100293);  // addi t0, zero, 1 — executed, so its page is now tracked
  EXPECT_EQ(hart_->gpr(5), 1u);
  // Overwrite the same location and re-execute: the stale decode must not be used.
  hart_->set_pc(kRam);
  Exec(0x00200293);  // addi t0, zero, 2
  EXPECT_EQ(hart_->gpr(5), 2u);
  EXPECT_EQ(hart_->decode_cache_hits(), 0u);  // both executions were misses
  EXPECT_EQ(hart_->decode_cache_misses(), 2u);
}

TEST_F(SimTest, FenceIInvalidatesDecodeCache) {
  machine_->bus().Write(kRam, 4, 0x00100293);      // addi t0, zero, 1
  machine_->bus().Write(kRam + 4, 4, 0x0000100F);  // fence.i
  hart_->set_pc(kRam);
  hart_->Tick();  // addi: miss, fill
  hart_->Tick();  // fence.i: bumps the local generation
  const uint64_t hits_before = hart_->decode_cache_hits();
  hart_->set_pc(kRam);
  hart_->Tick();  // the cached addi entry is stale now: must miss and refill
  EXPECT_EQ(hart_->decode_cache_hits(), hits_before);
  // The refilled entry is valid again: the next re-execution hits.
  hart_->set_pc(kRam);
  hart_->Tick();
  EXPECT_EQ(hart_->decode_cache_hits(), hits_before + 1);
}

TEST_F(MmuTest, MxrMakesExecutableReadable) {
  // Map an X-only user page at L0[4].
  bus_.Write(kRam + 0x2000 + 8 * 4, 8, (((kRam + 0x6000) >> 12) << 10) | 0xD9);  // V X A D, U
  TranslateParams user = params_;
  user.priv = PrivMode::kUser;
  EXPECT_FALSE(TranslateSv39(&bus_, pmp_, user, 0x4000, AccessType::kLoad).ok);
  user.mxr = true;
  EXPECT_TRUE(TranslateSv39(&bus_, pmp_, user, 0x4000, AccessType::kLoad).ok);
}

// -- Software TLB (DESIGN.md §2d). --------------------------------------------------

class TlbTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRoot = kRam + 0x1000;

  TlbTest() {
    MachineConfig config;
    config.hart_count = 1;
    machine_ = std::make_unique<Machine>(config);
    hart_ = &machine_->hart(0);
    SetupPaging(*machine_);
    hart_->csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
    hart_->csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
    hart_->csrs().Set(kCsrSatp, (uint64_t{8} << 60) | (kRoot >> 12));
    hart_->set_priv(PrivMode::kSupervisor);
  }

  // Identity 1 GiB superpage over the RAM region (code and page tables execute and
  // are stored through it) plus fine 4 KiB S-mode RW mappings: VA 0x3000 ->
  // kRam+0x5000 and VA 0x4000 -> kRam+0x6000, via root[0] -> L1 (kRam+0x2000) ->
  // L0 (kRam+0x3000).
  static void SetupPaging(Machine& machine) {
    Bus& bus = machine.bus();
    bus.Write(kRoot + 8 * 2, 8, ((kRam >> 12) << 10) | 0xCF);  // V R W X A D
    bus.Write(kRoot + 0, 8, (((kRam + 0x2000) >> 12) << 10) | 0x01);
    bus.Write(kRam + 0x2000, 8, (((kRam + 0x3000) >> 12) << 10) | 0x01);
    bus.Write(kRam + 0x3000 + 8 * 3, 8, (((kRam + 0x5000) >> 12) << 10) | 0xC7);  // V R W A D
    bus.Write(kRam + 0x3000 + 8 * 4, 8, (((kRam + 0x6000) >> 12) << 10) | 0xC7);
  }

  std::unique_ptr<Machine> machine_;
  Hart* hart_;
};

TEST_F(TlbTest, CountersTrackPagedTranslations) {
  hart_->set_pc(kRam + 0x8000);
  hart_->set_gpr(5, 0x3000);                            // t0
  machine_->bus().Write(kRam + 0x8000, 4, 0x0002B303);  // ld t1, 0(t0)
  hart_->Tick();
  // The first execution walks twice: the fetch and the load.
  EXPECT_EQ(hart_->tlb_misses(), 2u);
  EXPECT_EQ(hart_->tlb_hits(), 0u);
  hart_->set_pc(kRam + 0x8000);
  hart_->Tick();
  // Re-execution: the decode cache skips the fetch translation entirely, and the
  // load translation is served by the TLB.
  EXPECT_EQ(hart_->tlb_misses(), 2u);
  EXPECT_EQ(hart_->tlb_hits(), 1u);
  EXPECT_EQ(hart_->tlb_flushes(), 0u);
}

TEST_F(TlbTest, SfenceVmaFlushesAndRecounts) {
  hart_->set_pc(kRam + 0x8000);
  hart_->set_gpr(5, 0x3000);                                // t0
  machine_->bus().Write(kRam + 0x8000, 4, 0x0002B303);      // ld t1, 0(t0)
  machine_->bus().Write(kRam + 0x8000 + 4, 4, 0x12000073);  // sfence.vma x0, x0
  hart_->Tick();
  hart_->Tick();
  EXPECT_EQ(hart_->tlb_flushes(), 1u);
  const uint64_t misses = hart_->tlb_misses();
  hart_->set_pc(kRam + 0x8000);
  hart_->Tick();  // decode-cache hit, but the load must re-walk after the flush
  EXPECT_EQ(hart_->tlb_misses(), misses + 1);
}

TEST_F(TlbTest, CycleAccountingIdenticalWithTlbDisabled) {
  // The TLB is a host-side cache only: the same paging-heavy program must charge
  // exactly the same simulated cycles with the TLB on and off.
  const auto run = [](bool enabled) {
    MachineConfig config;
    config.tuning.tlb_entries = enabled ? 4096 : 0;
    Machine machine(config);
    Hart& hart = machine.hart(0);
    SetupPaging(machine);
    hart.csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
    hart.csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
    hart.csrs().Set(kCsrSatp, (uint64_t{8} << 60) | (kRoot >> 12));
    hart.set_priv(PrivMode::kSupervisor);
    Assembler a(kRam + 0x8000);
    a.Li(t0, 0x3000);
    a.Li(t1, 0x4000);
    a.Li(s2, 0);
    a.Li(s3, 50);
    a.Bind("loop");
    a.Ld(t2, t0, 0);
    a.Ld(t2, t1, 0);
    a.Sd(s2, t0, 8);
    a.SfenceVma();
    a.Addi(s2, s2, 1);
    a.Blt(s2, s3, "loop");
    Image image = std::move(a.Finish()).value();
    machine.LoadImage(image.base, image.bytes);
    hart.set_pc(image.entry);
    for (int i = 0; i < 1000; ++i) {
      machine.StepAll();
    }
    return std::make_tuple(hart.cycles(), hart.instret(), hart.pc(), hart.gpr(s2));
  };
  const auto with_tlb = run(true);
  const auto without_tlb = run(false);
  EXPECT_EQ(with_tlb, without_tlb);
}

TEST_F(TlbTest, DisabledTlbCountsNothing) {
  MachineConfig config;
  config.tuning.tlb_entries = 0;
  Machine machine(config);
  Hart& hart = machine.hart(0);
  SetupPaging(machine);
  hart.csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
  hart.csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
  hart.csrs().Set(kCsrSatp, (uint64_t{8} << 60) | (kRoot >> 12));
  hart.set_priv(PrivMode::kSupervisor);
  hart.set_pc(kRam + 0x8000);
  hart.set_gpr(5, 0x3000);
  machine.bus().Write(kRam + 0x8000, 4, 0x0002B303);  // ld t1, 0(t0)
  hart.Tick();
  hart.set_pc(kRam + 0x8000);
  hart.Tick();
  EXPECT_EQ(hart.tlb_hits(), 0u);
  EXPECT_EQ(hart.tlb_misses(), 0u);
}

// The in-block host-pointer fast path (DESIGN.md §2f) on each data-translation
// input: Sv39 S-mode, served through the TLB, and three identity inputs, served
// through PMP windows — bare S-mode, M-mode, and M-mode with MPRV down to bare
// S-mode — whose data shares a page with the loop's code. On every input the fast
// path must carry at least 90% of the loop's memory ops, and the run must charge
// identical cycles and count identical decode-cache and TLB events with the block
// engine on and off.
enum class DataInput { kSv39, kBareS, kMachine, kMprvBareS };

TEST_F(TlbTest, SuperblockHostFastPathCycleParity) {
  constexpr uint64_t kIterations = 200;
  constexpr uint64_t kLoopMemOps = 3 * kIterations;
  const auto run = [](DataInput input, uint32_t sb_entries, uint64_t* fast_hits,
                      uint64_t* fast_misses) {
    MachineConfig config;
    config.tuning.superblock_entries = sb_entries;
    Machine machine(config);
    Hart& hart = machine.hart(0);
    SetupPaging(machine);
    hart.csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
    hart.csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
    const uint64_t sv39 = (uint64_t{8} << 60) | (kRoot >> 12);
    uint64_t load_addr = kRam + 0x8800;  // identity inputs: the code's page
    uint64_t store_addr = kRam + 0x8808;
    switch (input) {
      case DataInput::kSv39:
        hart.csrs().Set(kCsrSatp, sv39);
        hart.set_priv(PrivMode::kSupervisor);
        load_addr = 0x3000;
        store_addr = 0x4000;
        break;
      case DataInput::kBareS:
        hart.set_priv(PrivMode::kSupervisor);
        break;
      case DataInput::kMachine:
        hart.csrs().Set(kCsrSatp, sv39);  // M-mode ignores it
        break;
      case DataInput::kMprvBareS: {
        uint64_t mstatus = SetBit(hart.csrs().mstatus(), MstatusBits::kMprv, 1);
        mstatus = InsertBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo,
                             static_cast<uint64_t>(PrivMode::kSupervisor));
        hart.csrs().set_mstatus(mstatus);
        break;
      }
    }
    Assembler a(kRam + 0x8000);
    a.Li(t0, load_addr);
    a.Li(t1, store_addr);
    a.Li(s2, 0);
    a.Li(s3, kIterations);
    a.Bind("loop");
    a.Ld(t2, t0, 0);
    a.Sd(s2, t1, 0);
    a.Lw(a4, t1, 0);
    a.Addi(s2, s2, 1);
    a.Blt(s2, s3, "loop");
    a.Wfi();
    Image image = std::move(a.Finish()).value();
    machine.LoadImage(image.base, image.bytes);
    hart.set_pc(image.entry);
    machine.RunUntilFinished(20000);  // parks in WFI; ends by budget
    *fast_hits = hart.host_fastpath_hits();
    *fast_misses = hart.host_fastpath_misses();
    return std::make_tuple(hart.cycles(), hart.instret(), hart.pc(), hart.gpr(s2),
                           hart.gpr(a4), hart.decode_cache_hits(),
                           hart.decode_cache_misses(), hart.tlb_hits(), hart.tlb_misses());
  };
  for (const DataInput input :
       {DataInput::kSv39, DataInput::kBareS, DataInput::kMachine, DataInput::kMprvBareS}) {
    SCOPED_TRACE(static_cast<int>(input));
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t tick_hits = 0;
    uint64_t tick_misses = 0;
    const auto with_blocks = run(input, 2048, &hits, &misses);
    const auto without_blocks = run(input, 0, &tick_hits, &tick_misses);
    EXPECT_EQ(std::get<3>(with_blocks), kIterations);
    EXPECT_GE(hits * 10, kLoopMemOps * 9);  // the fast path carried >= 90%
    EXPECT_EQ(tick_hits + tick_misses, 0u);
    EXPECT_EQ(with_blocks, without_blocks);
  }
}

// A loop walks a load through two data pages that PMP entry 0 grants (RW, 8 KiB
// NAPOT) ahead of the all-RAM entry 1. Between two runs of its block, a PMP write
// revokes the second page while the walk is still in the first. The window cached
// before the write must not serve the second page: the walk faults on its first
// word, at exactly that load, with the per-instruction machine's mepc, mtval,
// cycles and instret.
TEST(HostFastPathTest, PmpRevocationBetweenBlockRunsFaultsAtTheLoad) {
  constexpr uint64_t kData = kRam + 0x10000;
  struct Outcome {
    std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t> state;
    uint64_t load_pc = 0;
    uint64_t fast_hits_before = 0;
  };
  const auto run = [](uint32_t sb_entries) {
    MachineConfig config;
    config.tuning.superblock_entries = sb_entries;
    Machine machine(config);
    Hart& hart = machine.hart(0);
    PmpBank& pmp = hart.csrs().pmp();
    pmp.SetCfg(0, PmpCfg::FromByte(0x1B));  // NAPOT, R W: both data pages
    pmp.SetAddr(0, (kData >> 2) | ((0x2000 >> 3) - 1));
    pmp.SetCfg(1, PmpCfg::FromByte(0x1F));  // NAPOT, R W X: all the rest
    pmp.SetAddr(1, ~uint64_t{0} >> 10);
    hart.set_priv(PrivMode::kSupervisor);
    hart.csrs().Set(kCsrMtvec, kRam + 0xA000);
    machine.bus().Write(kRam + 0xA000, 4, 0x10500073);  // wfi
    Assembler a(kRam + 0x8000);
    a.Li(t0, kData);
    a.Li(s2, 0);
    a.Li(s3, 1024);
    a.Bind("loop");
    a.Ld(t2, t0, 0);
    a.Addi(t0, t0, 8);
    a.Addi(s2, s2, 1);
    a.Blt(s2, s3, "loop");
    a.Wfi();
    Image image = std::move(a.Finish()).value();
    machine.LoadImage(image.base, image.bytes);
    hart.set_pc(image.entry);
    machine.RunUntilFinished(401);  // about 100 loads into the first page
    Outcome outcome;
    outcome.load_pc = image.Symbol("loop");
    outcome.fast_hits_before = hart.host_fastpath_hits();
    pmp.SetAddr(0, ((kData + 0x1000) >> 2) | ((0x1000 >> 3) - 1));
    pmp.SetCfg(0, PmpCfg::FromByte(0x18));  // NAPOT, no permissions: the second page
    machine.RunUntilFinished(4000);
    outcome.state = std::make_tuple(hart.csrs().Get(kCsrMcause), hart.csrs().Get(kCsrMepc),
                                    hart.csrs().Get(kCsrMtval), hart.gpr(s2), hart.cycles(),
                                    hart.instret(), hart.pc());
    return outcome;
  };
  const Outcome blocks = run(2048);
  const Outcome per_instruction = run(0);
  EXPECT_GT(blocks.fast_hits_before, 90u);  // the window served the loads until then
  EXPECT_EQ(std::get<0>(blocks.state), CauseValue(ExceptionCause::kLoadAccessFault));
  EXPECT_EQ(std::get<1>(blocks.state), blocks.load_pc);
  EXPECT_EQ(std::get<2>(blocks.state), kData + 0x1000);
  EXPECT_EQ(std::get<3>(blocks.state), 0x1000u / 8);  // every load of the first page
  EXPECT_EQ(blocks.state, per_instruction.state);
}

// Content-keyed PMP epochs (DESIGN.md §2b, §2f). An S-mode loop is decoded and
// built into blocks under PMP contents A (all memory RWX), in two runs. Contents B take execute
// away from the loop's page: entering it faults at its first instruction, with that
// pc in mepc and mtval. Back under A, the loop runs again without a re-decode or a
// block build. Then code on another page, running under B, stores into the loop's
// bound; back under A, the stored instruction is the one that runs. Both the block
// engine and the per-instruction machine end in the same state.
TEST(PmpEpochTest, ReturningToEarlierContentsKeepsCodeAndSeesStores) {
  constexpr uint64_t kCode = kRam + 0x8000;
  constexpr uint64_t kPatcher = kRam + 0x9000;
  constexpr uint64_t kHandler = kRam + 0xA000;
  struct Outcome {
    std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t>
        state;
    uint64_t entry = 0;
    uint64_t redecodes = 0;  // decode misses of the return to A
    uint64_t rebuilds = 0;   // block builds of the return to A
    uint64_t block_hits = 0;  // block dispatches of the return to A
  };
  const auto run = [](uint32_t sb_entries) {
    MachineConfig config;
    config.tuning.superblock_entries = sb_entries;
    Machine machine(config);
    Hart& hart = machine.hart(0);
    PmpBank& pmp = hart.csrs().pmp();
    PmpBank::Contents open = pmp.contents();
    open.cfg[1] = 0x1F;  // NAPOT, R W X: all memory
    open.addr[1] = ~uint64_t{0} >> 10;
    PmpBank::Contents no_exec = open;
    no_exec.cfg[0] = 0x1B;  // NAPOT, R W: the loop's page
    no_exec.addr[0] = (kCode >> 2) | ((0x1000 >> 3) - 1);
    hart.csrs().Set(kCsrMtvec, kHandler);
    machine.bus().Write(kHandler, 4, 0x10500073);  // wfi

    Assembler a(kCode);
    a.Li(s2, 0);
    a.Bind("bound");
    a.Addi(s3, zero, 100);
    a.Bind("loop");
    a.Addi(s2, s2, 1);
    a.Blt(s2, s3, "loop");
    a.Wfi();
    Image loop = std::move(a.Finish()).value();
    Assembler patched_bound(0);
    patched_bound.Addi(s3, zero, 50);
    uint32_t word = 0;
    std::memcpy(&word, std::move(patched_bound.Finish()).value().bytes.data(), 4);
    Assembler p(kPatcher);
    p.Li(t0, loop.Symbol("bound"));
    p.Li(t1, word);
    p.Sw(t1, t0, 0);
    p.Wfi();
    Image patcher = std::move(p.Finish()).value();
    machine.LoadImage(loop.base, loop.bytes);
    machine.LoadImage(patcher.base, patcher.bytes);

    const auto enter = [&](uint64_t pc, const PmpBank::Contents& contents) {
      pmp.Install(contents);
      hart.set_priv(PrivMode::kSupervisor);
      hart.set_waiting(false);
      hart.set_pc(pc);
      hart.set_gpr(s2, 0);
      machine.RunUntilFinished(2000);
    };
    Outcome outcome;
    outcome.entry = loop.entry;
    enter(loop.entry, open);
    enter(loop.entry, open);  // the first run decodes; this one builds every block
    const uint64_t first = hart.gpr(s2);
    enter(loop.entry, no_exec);
    const uint64_t cause = hart.csrs().Get(kCsrMcause);
    const uint64_t epc = hart.csrs().Get(kCsrMepc);
    const uint64_t tval = hart.csrs().Get(kCsrMtval);
    const uint64_t misses = hart.decode_cache_misses();
    const uint64_t builds = hart.threaded_promotions();
    const uint64_t hits = hart.superblock_hits();
    enter(loop.entry, open);
    const uint64_t again = hart.gpr(s2);
    outcome.redecodes = hart.decode_cache_misses() - misses;
    outcome.rebuilds = hart.threaded_promotions() - builds;
    outcome.block_hits = hart.superblock_hits() - hits;
    enter(patcher.entry, no_exec);
    enter(loop.entry, open);
    outcome.state = std::make_tuple(first, cause, epc, tval, again, hart.gpr(s2), hart.cycles(),
                                    hart.instret());
    return outcome;
  };
  const Outcome blocks = run(2048);
  const Outcome per_instruction = run(0);
  EXPECT_EQ(std::get<0>(blocks.state), 100u);
  EXPECT_EQ(std::get<1>(blocks.state), CauseValue(ExceptionCause::kInstrAccessFault));
  EXPECT_EQ(std::get<2>(blocks.state), blocks.entry);
  EXPECT_EQ(std::get<3>(blocks.state), blocks.entry);
  EXPECT_EQ(std::get<4>(blocks.state), 100u);
  EXPECT_EQ(std::get<5>(blocks.state), 50u);  // the store made under B
  EXPECT_EQ(blocks.redecodes, 0u);
  EXPECT_EQ(blocks.rebuilds, 0u);
  EXPECT_GE(blocks.block_hits, 1u);
  EXPECT_EQ(per_instruction.redecodes, 0u);
  EXPECT_EQ(blocks.state, per_instruction.state);
}

// An identity-mapped loop whose data shares the code's page: its stores to an
// unmarked line of that page stay on the fast path, and so do those of a second
// store walking one page per iteration through data RAM, until on iteration 10 that
// store lands on one of the loop's own instructions (a marked line). That store
// must still bump the code generation, leave the block and force a re-decode, as on
// the per-instruction machine.
TEST(HostFastPathTest, StoreToMarkedCodeLineStillRedecodes) {
  constexpr uint64_t kIterations = 20;
  constexpr uint64_t kCode = kRam + 0x20400;
  struct Outcome {
    std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t>
        state;
    uint64_t fast_hits = 0;
    uint64_t deopts = 0;
  };
  const auto run = [](uint32_t sb_entries) {
    MachineConfig config;
    config.tuning.superblock_entries = sb_entries;
    Machine machine(config);
    Hart& hart = machine.hart(0);
    hart.csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
    hart.csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
    hart.set_priv(PrivMode::kSupervisor);
    Assembler a(kCode);
    a.Li(s2, 0);
    a.Li(s3, kIterations);
    a.Li(s5, 0);
    a.Li(a4, 0x002A8A93);  // addi s5, s5, 2 — the replacement word
    a.La(a3, "patch");
    a.Li(a6, 10 * 0x1000);
    a.Sub(a3, a3, a6);  // the walking store starts 10 pages below "patch"
    a.Li(a6, 0x1000);
    a.Li(t1, kCode + 0x400);  // an unmarked line of the code's page
    a.Bind("loop");
    a.Sd(s2, t1, 0);
    a.Sw(a4, a3, 0);
    a.Add(a3, a3, a6);
    a.Bind("patch");
    a.Addi(s5, s5, 1);  // +2 from iteration 10 on
    a.Addi(s2, s2, 1);
    a.Blt(s2, s3, "loop");
    a.Wfi();
    Image image = std::move(a.Finish()).value();
    machine.LoadImage(image.base, image.bytes);
    hart.set_pc(image.entry);
    machine.RunUntilFinished(5000);
    uint64_t stored = 0;
    machine.bus().Read(kCode + 0x400, 8, &stored);
    Outcome outcome;
    outcome.fast_hits = hart.host_fastpath_hits();
    outcome.deopts = hart.threaded_deopts();
    outcome.state = std::make_tuple(hart.gpr(s5), stored, machine.bus().code_generation(),
                                    hart.cycles(), hart.instret(), hart.pc(),
                                    hart.decode_cache_hits(), hart.decode_cache_misses());
    return outcome;
  };
  const Outcome blocks = run(2048);
  const Outcome per_instruction = run(0);
  EXPECT_EQ(std::get<0>(blocks.state), 10 + 2 * 10u);
  EXPECT_EQ(std::get<1>(blocks.state), kIterations - 1);
  EXPECT_EQ(std::get<2>(blocks.state), 1u);  // the one store to a marked line
  EXPECT_GE(blocks.fast_hits, 25u);          // every other store
  EXPECT_GE(blocks.deopts, 1u);              // the marked-line store left the block
  EXPECT_EQ(blocks.state, per_instruction.state);
}

// Code and data in the RAM's last 4 KiB page. A loop's in-block loads and stores
// reach the page's final doubleword through both fast-path branches: a Sv39
// mapping (the TLB entry's host_page) at S-mode and a PMP window at M-mode. Each
// iteration also stores to the UART, which must reach the device by the slow path,
// and loads the next doubleword of a walk that ends just past the RAM: that load
// faults at exactly its pc. The run matches the per-instruction machine in cycles,
// instret and registers. (The first iteration decodes the loop; the other
// iterations run as blocks.)
TEST(HostFastPathTest, LastRamPageOnBothBranches) {
  constexpr uint64_t kIterations = 100;
  constexpr uint64_t kRamSize = 1 << 20;
  constexpr uint64_t kLast = kRam + kRamSize - 0x1000;
  constexpr uint64_t kEnd = kRam + kRamSize;
  constexpr uint64_t kRoot = kRam + 0x1000;
  struct Outcome {
    std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
               uint64_t, uint64_t, uint64_t>
        state;
    std::string uart;
    uint64_t fault_pc = 0;
    uint64_t fast_hits = 0;
    uint64_t fast_misses = 0;
  };
  const auto run = [](bool paged, uint32_t sb_entries) {
    MachineConfig config;
    config.map.ram_size = kRamSize;
    config.tuning.superblock_entries = sb_entries;
    Machine machine(config);
    Hart& hart = machine.hart(0);
    Bus& bus = machine.bus();
    hart.csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
    hart.csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
    hart.csrs().Set(kCsrMtvec, kRam + 0x8000);
    bus.Write(kRam + 0x8000, 4, 0x10500073);  // wfi
    // An identity gigapage over RAM for the code, and 4 KiB S-mode RW pages at VA
    // 0x3000 (the last RAM page), 0x4000 (the frame just past RAM) and 0x6000 (the
    // UART).
    bus.Write(kRoot + 8 * 2, 8, ((kRam >> 12) << 10) | 0xCF);
    bus.Write(kRoot, 8, (((kRam + 0x2000) >> 12) << 10) | 0x01);
    bus.Write(kRam + 0x2000, 8, (((kRam + 0x3000) >> 12) << 10) | 0x01);
    bus.Write(kRam + 0x3000 + 8 * 3, 8, ((kLast >> 12) << 10) | 0xC7);
    bus.Write(kRam + 0x3000 + 8 * 4, 8, ((kEnd >> 12) << 10) | 0xC7);
    bus.Write(kRam + 0x3000 + 8 * 6, 8, ((config.map.uart_base >> 12) << 10) | 0xC7);
    uint64_t data = kLast + 0xFF8;
    uint64_t past = kEnd;
    uint64_t uart = config.map.uart_base;
    if (paged) {
      hart.csrs().Set(kCsrSatp, (uint64_t{8} << 60) | (kRoot >> 12));
      hart.set_priv(PrivMode::kSupervisor);
      data = 0x3FF8;
      past = 0x4000;
      uart = 0x6000;
    }
    Assembler a(kLast);
    a.Li(t0, data);
    a.Li(t1, uart);
    a.Li(t3, past - 8 * (kIterations - 1));  // the walk reaches `past` last
    a.Li(a5, 'Z');
    a.Li(s2, 0);
    a.Li(s3, kIterations);
    a.Bind("loop");
    a.Ld(t2, t0, 0);
    a.Add(t2, t2, s2);
    a.Sd(t2, t0, 0);
    a.Lw(a4, t0, 4);  // the RAM's last word
    a.Sb(a5, t1, 0);
    a.Bind("fault");
    a.Ld(a6, t3, 0);
    a.Addi(t3, t3, 8);
    a.Addi(s2, s2, 1);
    a.Blt(s2, s3, "loop");
    a.Wfi();
    Image image = std::move(a.Finish()).value();
    machine.LoadImage(image.base, image.bytes);
    hart.set_pc(image.entry);
    machine.RunUntilFinished(5000);  // parks in the trap handler's WFI
    uint64_t last = 0;
    bus.Read(kLast + 0xFF8, 8, &last);
    Outcome outcome;
    outcome.state = std::make_tuple(
        hart.csrs().Get(kCsrMcause), hart.csrs().Get(kCsrMepc), hart.csrs().Get(kCsrMtval),
        last, hart.gpr(t2), hart.gpr(a4), hart.gpr(a6), hart.gpr(s2), hart.cycles(),
        hart.instret(), hart.pc());
    outcome.uart = machine.uart().output();
    outcome.fault_pc = image.Symbol("fault");
    outcome.fast_hits = hart.host_fastpath_hits();
    outcome.fast_misses = hart.host_fastpath_misses();
    return outcome;
  };
  for (const bool paged : {true, false}) {
    SCOPED_TRACE(paged ? "Sv39 S-mode" : "M-mode");
    const Outcome blocks = run(paged, 2048);
    const Outcome per_instruction = run(paged, 0);
    EXPECT_EQ(std::get<0>(blocks.state), CauseValue(ExceptionCause::kLoadAccessFault));
    EXPECT_EQ(std::get<1>(blocks.state), blocks.fault_pc);
    EXPECT_EQ(std::get<2>(blocks.state), paged ? 0x4000u : kEnd);
    EXPECT_EQ(std::get<3>(blocks.state), kIterations * (kIterations - 1) / 2);
    EXPECT_EQ(std::get<7>(blocks.state), kIterations - 1);  // faulted before its addi
    EXPECT_EQ(blocks.uart, std::string(kIterations, 'Z'));
    EXPECT_EQ(blocks.state, per_instruction.state);
    EXPECT_EQ(blocks.uart, per_instruction.uart);
    // In the block iterations every RAM access (the loop's three and the walk's
    // load, but for the faulting one) ran on the fast path; the UART stores and the
    // faulting load took the slow path.
    EXPECT_GE(blocks.fast_hits, 4 * (kIterations - 1) - 1);
    EXPECT_GE(blocks.fast_misses, kIterations);
    EXPECT_EQ(per_instruction.fast_hits + per_instruction.fast_misses, 0u);
  }
}

// -- Superblock execution engine (DESIGN.md §2f). -----------------------------------

class SuperblockTest : public ::testing::Test {
 protected:
  SuperblockTest() {
    MachineConfig config;
    config.hart_count = 1;
    config.tuning.superblock_entries = 2048;
    machine_ = std::make_unique<Machine>(config);
    hart_ = &machine_->hart(0);
  }

  // Three simple instructions followed by a WFI barrier: a three-instruction block.
  void LoadStraightLine() {
    machine_->bus().Write(kRam, 4, 0x00100293);       // addi t0, zero, 1
    machine_->bus().Write(kRam + 4, 4, 0x00200313);   // addi t1, zero, 2
    machine_->bus().Write(kRam + 8, 4, 0x00300393);   // addi t2, zero, 3
    machine_->bus().Write(kRam + 12, 4, 0x10500073);  // wfi
  }

  // One pass over the straight line via the batched entry point.
  void RunPass() {
    hart_->set_pc(kRam);
    hart_->RunBatch(3, ~uint64_t{0});
  }

  // Pass 1 decodes per-instruction, pass 2 builds the block, pass 3 hits it.
  void WarmBlock() {
    LoadStraightLine();
    RunPass();
    RunPass();
    RunPass();
    ASSERT_EQ(hart_->superblock_hits(), 1u);
    ASSERT_EQ(hart_->superblock_instrs(), 6u);
  }

  std::unique_ptr<Machine> machine_;
  Hart* hart_;
};

TEST_F(SuperblockTest, FenceIInvalidatesSuperblock) {
  WarmBlock();
  // The fence.i word goes to a page nothing has executed from, so the write itself
  // does not bump the code generation — only the fence.i execution does.
  machine_->bus().Write(kRam + 0x1000, 4, 0x0000100F);
  hart_->set_pc(kRam + 0x1000);
  hart_->Tick();
  RunPass();  // stale block: must not be dispatched, decode cache refills
  EXPECT_EQ(hart_->superblock_hits(), 1u);
  RunPass();  // rebuild
  RunPass();
  EXPECT_EQ(hart_->superblock_hits(), 2u);
}

TEST_F(SuperblockTest, StoreToExecPageInvalidatesBlock) {
  WarmBlock();
  EXPECT_EQ(hart_->gpr(t2), 3u);
  // Overwrite the third instruction of the cached block in guest RAM.
  machine_->bus().Write(kRam + 8, 4, 0x00700393);  // addi t2, zero, 7
  hart_->set_gpr(t2, 0);
  RunPass();  // stale block must not be dispatched
  EXPECT_EQ(hart_->superblock_hits(), 1u);
  EXPECT_EQ(hart_->gpr(t2), 7u);
  RunPass();  // rebuilt with the new instruction
  hart_->set_gpr(t2, 0);
  RunPass();
  EXPECT_EQ(hart_->superblock_hits(), 2u);
  EXPECT_EQ(hart_->gpr(t2), 7u);
}

TEST_F(SuperblockTest, PmpRewriteInvalidatesBlock) {
  WarmBlock();
  // The PMP generation is folded into the block stamp exactly as into the decode
  // cache's: any reconfiguration forces a revalidating rebuild.
  hart_->csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
  hart_->csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
  RunPass();
  EXPECT_EQ(hart_->superblock_hits(), 1u);
  RunPass();
  RunPass();
  EXPECT_EQ(hart_->superblock_hits(), 2u);
}

TEST_F(SuperblockTest, SatpChangeIsPartOfBlockKey) {
  WarmBlock();
  // A satp write is a barrier op, so a switch can never happen inside a block; the
  // hazard is dispatching a block built under another address space. Blocks are
  // keyed on the effective satp (even in M-mode, where it does not affect fetch),
  // so the switched hart must rebuild rather than reuse.
  hart_->csrs().Set(kCsrSatp, (uint64_t{8} << 60) | ((kRam + 0x1000) >> 12));
  RunPass();
  EXPECT_EQ(hart_->superblock_hits(), 1u);
  RunPass();
  RunPass();
  EXPECT_EQ(hart_->superblock_hits(), 2u);
}

// A loop whose first instruction is a CSR read: the lookup at its pc finds a
// barrier head, whose zero-op entry is Ticked directly. Such lookups count as
// neither hit nor miss, so the misses stay those of the one-time builds whatever
// the iteration count, and the run ends in the snapshot of the machine without
// blocks.
TEST(SuperblockMachineTest, BarrierHeadLoopNeitherHitsNorMisses) {
  struct Outcome {
    std::vector<uint8_t> state;
    uint64_t misses = 0;
    uint64_t hits = 0;
  };
  const auto run = [](uint32_t sb_entries, uint64_t iterations) {
    MachineConfig config;
    config.tuning.superblock_entries = sb_entries;
    Machine machine(config);
    Assembler a(kRam);
    a.Li(s2, 0);
    a.Li(s3, iterations);
    a.Bind("loop");
    a.Csrr(t0, kCsrMscratch);  // the barrier head
    a.Addi(s2, s2, 1);
    a.Add(s4, s4, t0);
    a.Blt(s2, s3, "loop");
    a.Li(t1, 0x10'0000);  // finisher
    a.Li(t2, 0x5555);     // pass
    a.Sw(t2, t1, 0);
    Image image = std::move(a.Finish()).value();
    machine.LoadImage(image.base, image.bytes);
    machine.hart(0).csrs().Set(kCsrMscratch, 3);
    machine.hart(0).set_pc(image.entry);
    EXPECT_TRUE(machine.RunUntilFinished(100'000));
    Outcome outcome;
    outcome.misses = machine.hart(0).superblock_misses();
    outcome.hits = machine.hart(0).superblock_hits();
    Snapshot snapshot;
    machine.SaveSnapshot(snapshot);
    outcome.state = snapshot.state;
    return outcome;
  };
  const Outcome short_run = run(2048, 10);
  const Outcome long_run = run(2048, 1000);
  EXPECT_EQ(long_run.state, run(0, 1000).state);
  EXPECT_EQ(long_run.misses, short_run.misses);
  EXPECT_GE(long_run.hits, 990u);  // the addi/add/blt block after every csrr
}

TEST(SuperblockMachineTest, SelfModifyingLoopMatchesPerInstruction) {
  // A loop that patches its own body between passes: with the block engine on, the
  // store lands while a cached superblock over the loop is live. The patched
  // instruction must take effect exactly as in per-instruction execution, with
  // identical retired-instruction, cycle, and decode-cache-hit counts.
  const auto run = [](uint32_t sb_entries) {
    MachineConfig config;
    config.tuning.superblock_entries = sb_entries;
    Machine machine(config);
    Hart& hart = machine.hart(0);
    Assembler a(kRam);
    a.Li(s2, 0);
    a.Li(s3, 10);
    a.La(a3, "patch");
    a.Li(a4, 0x00790913);  // addi s2, s2, 7 — the replacement word
    a.Li(s5, 0);
    a.Bind("outer");
    a.Li(s4, 0);
    a.Bind("loop");
    a.Bind("patch");
    a.Addi(s2, s2, 1);
    a.Addi(s4, s4, 1);
    a.Blt(s4, s3, "loop");
    a.Sw(a4, a3, 0);  // patch the loop body between passes
    a.Addi(s5, s5, 1);
    a.Li(t0, 2);
    a.Blt(s5, t0, "outer");
    a.Li(t1, 0x10'0000);  // finisher
    a.Li(t2, 0x5555);     // pass
    a.Sw(t2, t1, 0);
    Image image = std::move(a.Finish()).value();
    machine.LoadImage(image.base, image.bytes);
    hart.set_pc(image.entry);
    const bool finished = machine.RunUntilFinished(100000);
    return std::make_tuple(finished, hart.gpr(s2), hart.cycles(), hart.instret(),
                           hart.pc(), hart.decode_cache_hits(),
                           hart.decode_cache_misses());
  };
  const auto with_blocks = run(2048);
  const auto without_blocks = run(0);
  EXPECT_TRUE(std::get<0>(with_blocks));
  EXPECT_EQ(std::get<1>(with_blocks), 80u);  // 10 * 1 + 10 * 7
  EXPECT_EQ(with_blocks, without_blocks);
}

// -- Lowered blocks (DESIGN.md §2f): every valid block is lowered when it is built. ---

class LoweredBlockTest : public ::testing::Test {
 protected:
  LoweredBlockTest() {
    MachineConfig config;
    config.hart_count = 1;
    machine_ = std::make_unique<Machine>(config);
    hart_ = &machine_->hart(0);
  }

  void LoadStraightLine() {
    machine_->bus().Write(kRam, 4, 0x00100293);       // addi t0, zero, 1
    machine_->bus().Write(kRam + 4, 4, 0x00200313);   // addi t1, zero, 2
    machine_->bus().Write(kRam + 8, 4, 0x00300393);   // addi t2, zero, 3
    machine_->bus().Write(kRam + 12, 4, 0x10500073);  // wfi
  }

  void RunPass() {
    hart_->set_pc(kRam);
    hart_->RunBatch(3, ~uint64_t{0});
  }

  // Pass 1 decodes per-instruction; pass 2 builds the block, which lowers it, and
  // runs it through the block executor.
  void WarmLowered() {
    LoadStraightLine();
    RunPass();
    RunPass();
    ASSERT_EQ(hart_->threaded_promotions(), 1u);
    ASSERT_EQ(hart_->threaded_blocks(), 1u);
    ASSERT_EQ(hart_->threaded_instrs(), 3u);
  }

  std::unique_ptr<Machine> machine_;
  Hart* hart_;
};

TEST_F(LoweredBlockTest, LowersOnFirstValidDispatchAndReuses) {
  LoadStraightLine();
  RunPass();  // per-instruction decode: no block can be built yet
  EXPECT_EQ(hart_->threaded_promotions(), 0u);
  EXPECT_EQ(hart_->threaded_blocks(), 0u);
  RunPass();  // first valid dispatch: builds, lowers and runs the block
  EXPECT_EQ(hart_->threaded_promotions(), 1u);
  EXPECT_EQ(hart_->threaded_blocks(), 1u);
  EXPECT_EQ(hart_->threaded_instrs(), 3u);
  RunPass();  // the lowered block is reused, not rebuilt
  EXPECT_EQ(hart_->threaded_promotions(), 1u);
  EXPECT_EQ(hart_->threaded_blocks(), 2u);
  EXPECT_EQ(hart_->threaded_instrs(), 6u);
  EXPECT_EQ(hart_->superblock_hits(), 1u);
  EXPECT_EQ(hart_->gpr(t0), 1u);
  EXPECT_EQ(hart_->gpr(t1), 2u);
  EXPECT_EQ(hart_->gpr(t2), 3u);
}

TEST_F(LoweredBlockTest, FenceIInvalidatesLoweredBlock) {
  WarmLowered();
  machine_->bus().Write(kRam + 0x1000, 4, 0x0000100F);  // fence.i
  hart_->set_pc(kRam + 0x1000);
  hart_->Tick();
  hart_->set_gpr(t2, 0);
  RunPass();  // stale lowering must not be dispatched; per-instruction refill
  EXPECT_EQ(hart_->threaded_blocks(), 1u);
  EXPECT_EQ(hart_->threaded_promotions(), 1u);
  EXPECT_EQ(hart_->gpr(t2), 3u);  // identical architectural outcome either way
  RunPass();  // rebuilt and lowered again
  EXPECT_EQ(hart_->threaded_promotions(), 2u);
  EXPECT_EQ(hart_->threaded_blocks(), 2u);
}

TEST_F(LoweredBlockTest, StoreToExecPageInvalidatesLoweredBlock) {
  WarmLowered();
  EXPECT_EQ(hart_->gpr(t2), 3u);
  // Overwrite the third instruction of the lowered block in guest RAM.
  machine_->bus().Write(kRam + 8, 4, 0x00700393);  // addi t2, zero, 7
  hart_->set_gpr(t2, 0);
  RunPass();  // stale: per-instruction execution already sees the patched word
  EXPECT_EQ(hart_->threaded_blocks(), 1u);
  EXPECT_EQ(hart_->gpr(t2), 7u);
  hart_->set_gpr(t2, 0);
  RunPass();  // rebuilt from the new bytes
  EXPECT_EQ(hart_->threaded_promotions(), 2u);
  EXPECT_EQ(hart_->threaded_blocks(), 2u);
  EXPECT_EQ(hart_->gpr(t2), 7u);
}

TEST_F(LoweredBlockTest, PmpRewriteInvalidatesLoweredBlock) {
  WarmLowered();
  hart_->csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
  hart_->csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
  hart_->set_gpr(t2, 0);
  RunPass();  // stamp mismatch: no stale dispatch
  EXPECT_EQ(hart_->threaded_blocks(), 1u);
  EXPECT_EQ(hart_->gpr(t2), 3u);
  RunPass();
  EXPECT_EQ(hart_->threaded_promotions(), 2u);
  EXPECT_EQ(hart_->threaded_blocks(), 2u);
}

TEST_F(LoweredBlockTest, SatpChangeInvalidatesLoweredBlock) {
  WarmLowered();
  // Blocks (and their lowerings) are keyed on the effective satp: a switched address
  // space must rebuild rather than reuse the lowering.
  hart_->csrs().Set(kCsrSatp, (uint64_t{8} << 60) | ((kRam + 0x1000) >> 12));
  hart_->set_gpr(t2, 0);
  RunPass();
  EXPECT_EQ(hart_->threaded_blocks(), 1u);
  EXPECT_EQ(hart_->gpr(t2), 3u);
  RunPass();
  EXPECT_EQ(hart_->threaded_promotions(), 2u);
  EXPECT_EQ(hart_->threaded_blocks(), 2u);
}

TEST(LoweredBlockMachineTest, SelfModifyingStoreInsideBlockDeopts) {
  // A patching store that walks one page per iteration through data RAM (host-
  // pointer fast path, no code invalidation) while its block runs lowered, then
  // lands on the code page on iteration 11 — so the invalidating store executes
  // *inside* the lowered block. The mid-block deopt must hand off bit-identically:
  // the run retires the same instructions in the same simulated cycles as the
  // per-instruction machine.
  const auto run = [](uint32_t sb_entries, uint64_t* deopts) {
    MachineConfig config;
    config.tuning.superblock_entries = sb_entries;
    Machine machine(config);
    Hart& hart = machine.hart(0);
    Assembler a(kRam + 0xC000);
    a.Li(s2, 0);
    a.Li(s3, 14);
    a.Li(s4, 0);
    a.Li(a4, 0x00790913);  // addi s2, s2, 7 — the replacement word
    a.La(a3, "patch");
    a.Li(a6, 11 * 0x1000);
    a.Sub(a3, a3, a6);  // the store target starts 11 pages below the code page
    a.Li(a6, 0x1000);
    a.Bind("loop");
    a.Bind("patch");
    a.Addi(s2, s2, 1);  // patched to +7 once the store reaches the code page
    a.Sw(a4, a3, 0);
    a.Add(a3, a3, a6);
    a.Addi(s4, s4, 1);
    a.Blt(s4, s3, "loop");
    a.Li(t1, 0x10'0000);  // finisher
    a.Li(t2, 0x5555);     // pass
    a.Sw(t2, t1, 0);
    Image image = std::move(a.Finish()).value();
    machine.LoadImage(image.base, image.bytes);
    hart.set_pc(image.entry);
    const bool finished = machine.RunUntilFinished(100000);
    *deopts = hart.threaded_deopts();
    return std::make_tuple(finished, hart.gpr(s2), hart.cycles(), hart.instret(),
                           hart.pc(), hart.decode_cache_hits(),
                           hart.decode_cache_misses());
  };
  uint64_t block_deopts = 0;
  uint64_t per_instruction_deopts = 0;
  const auto blocks = run(2048, &block_deopts);
  const auto per_instruction = run(0, &per_instruction_deopts);
  EXPECT_TRUE(std::get<0>(blocks));
  EXPECT_EQ(std::get<1>(blocks), 26u);  // 12 * 1 + 2 * 7
  EXPECT_GE(block_deopts, 1u);          // the store fired inside a lowered block
  EXPECT_EQ(per_instruction_deopts, 0u);
  EXPECT_EQ(blocks, per_instruction);
}

TEST(LoweredBlockMachineTest, BudgetEdgesInsideFusedOpsMatchPerInstruction) {
  // A loop body whose block holds a four-member kConstChain (lui/addi/slli/ori), a
  // mul (so cycle stops fall between step counts) and a fused slt + bnez. Every step
  // budget and every cycle stop that lands inside the block — including inside both
  // fused ops, which cannot run partially and hand their first member to one
  // interpreted tick — must leave exactly the state of the per-instruction machine.
  constexpr unsigned kBodyInstrs = 9;
  constexpr unsigned kBodyCycles = 17;  // 8 single-cycle instructions + mul (1 + 8)
  const auto make = [](uint32_t sb_entries) {
    MachineConfig config;
    config.map.ram_size = 1 << 20;
    config.tuning.superblock_entries = sb_entries;
    auto machine = std::make_unique<Machine>(config);
    Assembler a(kRam);
    a.Bind("loop");
    a.Lui(a0, 0x12345);  // a0 = 0x12345678, shifted and or'd: one folded chain
    a.Addi(a0, a0, 0x678);
    a.Slli(a0, a0, 4);
    a.Ori(a0, a0, 9);
    a.Add(a1, a1, a0);
    a.Mul(a2, a1, a0);
    a.Addi(s2, s2, 1);
    a.Slt(t0, s2, s3);  // fuses with the bnez below
    a.Bnez(t0, "loop");
    a.Wfi();
    Image image = std::move(a.Finish()).value();
    machine->LoadImage(image.base, image.bytes);
    Hart& hart = machine->hart(0);
    hart.set_pc(image.entry);
    hart.set_gpr(s3, 4);
    // One per-instruction pass decodes the body; the block is built on the next.
    hart.RunBatch(kBodyInstrs, ~uint64_t{0});
    return machine;
  };
  const auto state = [](const Hart& hart) {
    std::vector<uint64_t> words = {hart.pc(), hart.instret(), hart.cycles()};
    for (unsigned i = 0; i < 32; ++i) {
      words.push_back(hart.gpr(i));
    }
    return words;
  };
  const auto check = [&](uint64_t steps, uint64_t stop_offset, const char* what) {
    auto blocks = make(2048);
    auto per_instruction = make(0);
    for (Machine* m : {blocks.get(), per_instruction.get()}) {
      Hart& hart = m->hart(0);
      const uint64_t stop =
          stop_offset == 0 ? ~uint64_t{0} : hart.cycles() + stop_offset;
      hart.RunBatch(steps, stop);
    }
    EXPECT_EQ(state(blocks->hart(0)), state(per_instruction->hart(0)))
        << what << " steps=" << steps << " stop=+" << stop_offset;
    // The run from the boundary to the end of the loop matches as well.
    blocks->hart(0).RunBatch(1000, ~uint64_t{0});
    per_instruction->hart(0).RunBatch(1000, ~uint64_t{0});
    EXPECT_EQ(state(blocks->hart(0)), state(per_instruction->hart(0)))
        << what << " resumed, steps=" << steps << " stop=+" << stop_offset;
    EXPECT_GT(blocks->hart(0).threaded_blocks(), 0u);
    return blocks->hart(0).threaded_deopts();
  };
  uint64_t deopts = 0;
  for (uint64_t steps = 1; steps <= 2 * kBodyInstrs + 1; ++steps) {
    deopts += check(steps, 0, "step budget");
  }
  for (uint64_t stop = 1; stop <= 2 * kBodyCycles + 1; ++stop) {
    deopts += check(1000, stop, "cycle stop");
  }
  EXPECT_GT(deopts, 0u);  // some boundaries did fall inside a fused op
}

TEST(LoweredBlockMachineTest, BudgetEdgesAcrossChainsAndLinksMatchPerInstruction) {
  // A loop of two blocks: the first is cut at kMaxSuperblockLen and holds a
  // two-member kConstChain, a mul, a load and a store; the second holds three loads
  // and three stores and ends in a fused slt + bnez back to the first. Once both are
  // built, the executor links from one into the other without returning to
  // RunBatch, each pass bounded by the steps it may retire: whole passes by the
  // cycle stop alone, a partial one by the cycle charge of its ops that fit, re-set
  // for the steps left when an access's walk surcharge reaches it first. Every step
  // budget and every cycle stop over two loop passes must leave exactly the state of
  // the per-instruction machine, bare and under Sv39, where every fetch replays its
  // walk and the accesses add theirs at run time.
  constexpr uint64_t kRoot = kRam + 0x1000;
  constexpr uint64_t kData = kRam + 0x20000;
  constexpr unsigned kMaxBlockInstrs = 64;  // Hart::kMaxSuperblockLen
  constexpr unsigned kSecondBlockAccesses = 3;  // load + store pairs
  constexpr unsigned kLoopInstrs = kMaxBlockInstrs + 3 + 2 * kSecondBlockAccesses;
  const auto make = [](bool paged, uint32_t sb_entries) {
    MachineConfig config;
    config.map.ram_size = 1 << 20;
    config.tuning.superblock_entries = sb_entries;
    auto machine = std::make_unique<Machine>(config);
    Hart& hart = machine->hart(0);
    hart.csrs().pmp().SetCfg(0, PmpCfg::FromByte(0x1F));
    hart.csrs().pmp().SetAddr(0, ~uint64_t{0} >> 10);
    if (paged) {
      // One identity 1 GiB superpage over RAM (V R W X A D).
      machine->bus().Write(kRoot + 8 * 2, 8, ((kRam >> 12) << 10) | 0xCF);
      hart.csrs().Set(kCsrSatp, (uint64_t{8} << 60) | (kRoot >> 12));
      hart.set_priv(PrivMode::kSupervisor);
    }
    Assembler a(kRam + 0x8000);
    a.Li(t0, kData);
    a.Li(s2, 0);
    a.Li(s3, 1000);
    a.Bind("loop");
    a.Lui(a0, 0x12345);  // one folded chain of two members
    a.Addi(a0, a0, 0x678);
    a.Add(a1, a1, a0);
    a.Mul(a2, a1, a0);
    a.Ld(t2, t0, 0);
    a.Add(a3, a3, t2);
    a.Sd(a3, t0, 8);
    for (unsigned i = 7; i < kMaxBlockInstrs; ++i) {
      if (i % 2 == 0) {
        a.Addi(s4, s4, 3);
      } else {
        a.Xor(s5, s5, s4);
      }
    }
    a.Addi(s2, s2, 1);  // the second block
    for (unsigned i = 0; i < kSecondBlockAccesses; ++i) {
      a.Ld(t3, t0, static_cast<int32_t>(16 + 16 * i));
      a.Sd(t3, t0, static_cast<int32_t>(24 + 16 * i));
    }
    a.Slt(t1, s2, s3);  // fuses with the bnez below
    a.Bnez(t1, "loop");
    a.Wfi();
    Image image = std::move(a.Finish()).value();
    machine->LoadImage(image.base, image.bytes);
    hart.set_pc(image.entry);
    // The first pass decodes the loop one instruction at a time; the second builds
    // both blocks and ends at the loop head.
    const uint64_t loop = image.Symbol("loop");
    hart.RunBatch((loop - image.entry) / 4 + 2 * kLoopInstrs, ~uint64_t{0});
    EXPECT_EQ(hart.pc(), loop);
    return machine;
  };
  const auto state = [](const Hart& hart) {
    std::vector<uint64_t> words = {hart.pc(), hart.instret(), hart.cycles()};
    for (unsigned i = 0; i < 32; ++i) {
      words.push_back(hart.gpr(i));
    }
    return words;
  };
  for (const bool paged : {false, true}) {
    SCOPED_TRACE(paged ? "Sv39" : "bare");
    const auto check = [&](uint64_t steps, uint64_t stop_offset, const char* what) {
      auto blocks = make(paged, 2048);
      auto per_instruction = make(paged, 0);
      for (Machine* m : {blocks.get(), per_instruction.get()}) {
        Hart& hart = m->hart(0);
        const uint64_t stop = stop_offset == 0 ? ~uint64_t{0} : hart.cycles() + stop_offset;
        hart.RunBatch(steps, stop);
      }
      EXPECT_EQ(state(blocks->hart(0)), state(per_instruction->hart(0)))
          << what << " steps=" << steps << " stop=+" << stop_offset;
      blocks->hart(0).RunBatch(1000, ~uint64_t{0});
      per_instruction->hart(0).RunBatch(1000, ~uint64_t{0});
      EXPECT_EQ(state(blocks->hart(0)), state(per_instruction->hart(0)))
          << what << " resumed, steps=" << steps << " stop=+" << stop_offset;
    };
    // The cycles of two passes, on the per-instruction machine.
    auto probe = make(paged, 0);
    const uint64_t cycles_before = probe->hart(0).cycles();
    probe->hart(0).RunBatch(2 * kLoopInstrs, ~uint64_t{0});
    const uint64_t span = probe->hart(0).cycles() - cycles_before;
    for (uint64_t steps = 1; steps <= 2 * kLoopInstrs + 3; ++steps) {
      check(steps, 0, "step budget");
    }
    for (uint64_t stop = 1; stop <= span + 3; ++stop) {
      check(10'000, stop, "cycle stop");
    }
    // Two whole passes from the loop head run in one dispatch, through three links.
    auto blocks = make(paged, 2048);
    Hart& hart = blocks->hart(0);
    const uint64_t dispatches = hart.superblock_blocks();
    const uint64_t hits = hart.superblock_hits();
    hart.RunBatch(2 * kLoopInstrs, ~uint64_t{0});
    EXPECT_EQ(hart.superblock_blocks() - dispatches, 1u);
    EXPECT_EQ(hart.superblock_hits() - hits, 4u);
    // So does a budget that ends among the second block's accesses: under Sv39 their
    // walk surcharges reach the tail prefix's static charge before its last op.
    auto tail = make(paged, 2048);
    const uint64_t tail_dispatches = tail->hart(0).superblock_blocks();
    tail->hart(0).RunBatch(kLoopInstrs + kMaxBlockInstrs + 5, ~uint64_t{0});
    EXPECT_EQ(tail->hart(0).superblock_blocks() - tail_dispatches, 1u);
  }
}

// -- The op arena and the hashed cache index (DESIGN.md §2f). ------------------------

TEST(OpArenaTest, MoreBlocksThanTheArenaHoldsMatchPerInstruction) {
  // A 2-entry cache has two slots and a 130-op arena. Slot parity is pc bit 2 here,
  // so a hot routine at pc = 4 (mod 8) keeps slot 1 while 48 distinct four-op call
  // sites at pc = 0 (mod 8) churn through slot 0, each call rebuilding its block.
  // The arena starts over every ~16 builds, overwriting the hot block's ops under a
  // header that still matches in everything but its epoch. The run must leave
  // exactly the snapshot of the machine without blocks, with the hot block hitting.
  constexpr unsigned kCallSites = 48;
  constexpr unsigned kCallSiteOps = 4;
  constexpr uint32_t kSbEntries = 2;
  constexpr uint64_t kArenaOps = kSbEntries * 65;  // entries * (64-instruction cap + 1)
  struct Outcome {
    std::vector<uint8_t> state;
    uint64_t builds = 0;
    uint64_t hits = 0;
  };
  const auto run = [&](uint32_t sb_entries) {
    MachineConfig config;
    config.map.ram_size = 1 << 20;
    config.tuning.superblock_entries = sb_entries;
    Machine machine(config);
    Assembler a(kRam);
    a.Li(s3, 20);
    a.Nop();
    a.J("loop");
    a.Bind("hot");  // kRam + 12
    a.Addi(s7, s7, 1);
    a.Xor(s8, s8, s7);
    a.Ret();
    a.Bind("loop");  // kRam + 24
    for (unsigned i = 0; i < kCallSites; ++i) {
      a.Addi(s2, s2, static_cast<int32_t>(i + 1));
      a.Xor(s4, s4, s2);
      a.Add(s5, s5, s4);
      a.Jal(ra, "hot");
    }
    a.Addi(s6, s6, 1);
    a.Blt(s6, s3, "loop");
    a.Li(t1, 0x10'0000);  // finisher
    a.Li(t2, 0x5555);     // pass
    a.Sw(t2, t1, 0);
    Image image = std::move(a.Finish()).value();
    machine.LoadImage(image.base, image.bytes);
    machine.hart(0).set_pc(image.entry);
    EXPECT_TRUE(machine.RunUntilFinished(100'000));
    Outcome outcome;
    outcome.builds = machine.hart(0).threaded_promotions();
    outcome.hits = machine.hart(0).superblock_hits();
    Snapshot snapshot;
    machine.SaveSnapshot(snapshot);
    outcome.state = snapshot.state;
    return outcome;
  };
  const Outcome blocks = run(kSbEntries);
  const Outcome per_instruction = run(0);
  EXPECT_EQ(blocks.state, per_instruction.state);
  EXPECT_EQ(per_instruction.builds, 0u);
  EXPECT_GT(blocks.hits, 0u);  // the hot block kept running from the arena
  // More ops were built than the arena holds, so it started over many times.
  EXPECT_GT(blocks.builds * kCallSiteOps, 10 * kArenaOps);
}

TEST(OpArenaTest, FenceILoopKeepsOneIterationOfBlocks) {
  // Every fence.i moves cache_stamp(), which leaves every block in the arena stale.
  // The next build then starts the arena over, so a guest that invalidates on each
  // pass keeps one pass's blocks in the arena instead of walking through all of it.
  // A pass builds blocks only inside its inner loop (addi, addi, bnez), from any of
  // its three pcs where a batch boundary falls: at most 3 + 2 + 1 ops.
  constexpr uint64_t kPasses = 200;
  constexpr uint64_t kPassOps = 6;
  MachineConfig config;
  config.map.ram_size = 1 << 20;
  Machine machine(config);
  Hart& hart = machine.hart(0);
  Assembler a(kRam);
  a.Li(s3, kPasses);
  a.Bind("outer");
  a.FenceI();
  a.Li(t1, 8);
  a.Bind("inner");
  a.Addi(s2, s2, 1);
  a.Addi(t1, t1, -1);
  a.Bnez(t1, "inner");
  a.Addi(s4, s4, 1);
  a.Blt(s4, s3, "outer");
  a.Wfi();
  Image image = std::move(a.Finish()).value();
  machine.LoadImage(image.base, image.bytes);
  hart.set_pc(image.entry);
  uint64_t max_ops = 0;
  for (int i = 0; i < 100'000 && !hart.waiting(); ++i) {
    hart.RunBatch(16, ~uint64_t{0});
    max_ops = std::max(max_ops, hart.superblock_arena_ops());
  }
  ASSERT_TRUE(hart.waiting());
  EXPECT_EQ(hart.gpr(s2), 8 * kPasses);
  EXPECT_GE(hart.threaded_promotions(), kPasses);  // every pass rebuilds
  EXPECT_GT(hart.superblock_instrs(), 0u);
  EXPECT_LE(max_ops, kPassOps);
}

TEST(OpArenaTest, FirmwareAndKernelBasesStayCachedTogether) {
  // The platform profiles' firmware and kernel bases are 1 MiB-aligned and 3 MiB
  // apart, so pc >> 2 alone maps code at the same offset in each onto the same
  // decode-cache and superblock slots. A kernel loop at its base that calls a
  // firmware routine at its base on every pass must still decode each instruction
  // once and build each block once.
  constexpr uint64_t kFirmware = kRam + 0x10'0000;
  constexpr uint64_t kKernel = kRam + 0x40'0000;
  constexpr uint64_t kPasses = 100;
  MachineConfig config;
  Machine machine(config);
  Hart& hart = machine.hart(0);
  Assembler setup(kRam);
  setup.Li(s3, kPasses);
  setup.Li(s5, kFirmware);
  setup.Li(s7, kKernel);
  setup.Jalr(zero, s7, 0);
  Assembler fw(kFirmware);
  fw.Addi(a0, a0, 1);
  fw.Xor(a1, a1, a0);
  fw.Ret();
  Assembler os(kKernel);
  os.Bind("loop");
  os.Addi(s2, s2, 1);
  os.Xor(s4, s4, s2);
  os.Jalr(ra, s5, 0);
  os.Addi(s6, s6, 1);
  os.Blt(s6, s3, "loop");
  os.Li(t1, 0x10'0000);  // finisher
  os.Li(t2, 0x5555);     // pass
  os.Sw(t2, t1, 0);
  uint64_t instrs = 0;
  for (Assembler* image : {&setup, &fw, &os}) {
    Image built = std::move(image->Finish()).value();
    machine.LoadImage(built.base, built.bytes);
    instrs += built.bytes.size() / 4;
  }
  hart.set_pc(kRam);
  ASSERT_TRUE(machine.RunUntilFinished(10'000));
  EXPECT_EQ(hart.gpr(a0), kPasses);
  EXPECT_EQ(hart.decode_cache_misses(), instrs);
  // The kernel loop's two blocks and the firmware routine's one, each built once.
  EXPECT_EQ(hart.threaded_promotions(), 3u);
}

// -- Integer semantics against the ISA manual. ---------------------------------------
// Every execution path computes through one definition (AluResult in
// src/isa/instr.h), so cross-tuning cosim only compares that formula with itself.
// These literal results come from the RISC-V unprivileged spec: RV64I shifts use
// rs2[5:0] and W forms rs2[4:0], W results sign-extend bit 31, and the M extension's
// division-by-zero and overflow table.

enum : uint32_t { kOpImm = 0x13, kOpImm32 = 0x1B, kOpReg = 0x33, kOpReg32 = 0x3B };

// R-type with rd = t2, rs1 = t0, rs2 = t1.
constexpr uint32_t EncodeR(uint32_t funct7, uint32_t funct3, uint32_t opcode) {
  return funct7 << 25 | 6u << 20 | 5u << 15 | funct3 << 12 | 7u << 7 | opcode;
}
// I-type with rd = t2, rs1 = t0; `imm` carries the shift funct bits for srai/sraiw.
constexpr uint32_t EncodeI(int32_t imm, uint32_t funct3, uint32_t opcode) {
  return (static_cast<uint32_t>(imm) & 0xFFF) << 20 | 5u << 15 | funct3 << 12 | 7u << 7 |
         opcode;
}

struct SpecCase {
  const char* what;
  uint32_t word;
  uint64_t rs1;
  uint64_t rs2;  // unused by register-immediate forms
  uint64_t expected;
};

constexpr uint64_t kAllOnes = ~uint64_t{0};
constexpr uint64_t kMin64 = uint64_t{1} << 63;
constexpr uint64_t kMin32Sext = 0xFFFF'FFFF'8000'0000;

const SpecCase kSpecCases[] = {
    // Division by zero: quotient all ones, remainder the dividend.
    {"div x/0", EncodeR(1, 4, kOpReg), 7, 0, kAllOnes},
    {"divu x/0", EncodeR(1, 5, kOpReg), 7, 0, kAllOnes},
    {"rem x/0", EncodeR(1, 6, kOpReg), 7, 0, 7},
    {"remu x/0", EncodeR(1, 7, kOpReg), 7, 0, 7},
    {"divw x/0", EncodeR(1, 4, kOpReg32), 7, 0, kAllOnes},
    {"divuw x/0", EncodeR(1, 5, kOpReg32), 7, 0, kAllOnes},
    {"remw x/0", EncodeR(1, 6, kOpReg32), 0x8000'0000, 0, kMin32Sext},
    {"remuw x/0", EncodeR(1, 7, kOpReg32), 0x1'2345'6789, 0, 0x2345'6789},
    // Signed overflow: the quotient is the dividend, the remainder 0.
    {"div INT64_MIN/-1", EncodeR(1, 4, kOpReg), kMin64, kAllOnes, kMin64},
    {"rem INT64_MIN/-1", EncodeR(1, 6, kOpReg), kMin64, kAllOnes, 0},
    {"divw INT32_MIN/-1", EncodeR(1, 4, kOpReg32), 0x8000'0000, kAllOnes, kMin32Sext},
    {"remw INT32_MIN/-1", EncodeR(1, 6, kOpReg32), 0x8000'0000, kAllOnes, 0},
    // Signed division truncates toward zero.
    {"div -7/2", EncodeR(1, 4, kOpReg), static_cast<uint64_t>(-7), 2, static_cast<uint64_t>(-3)},
    {"rem -7/2", EncodeR(1, 6, kOpReg), static_cast<uint64_t>(-7), 2, kAllOnes},
    // Shift amounts: 31, 32 and 63, and rs2 >= 64 masked to rs2[5:0] (rs2[4:0] for W).
    {"sll by 63", EncodeR(0, 1, kOpReg), 1, 63, kMin64},
    {"sll by 67", EncodeR(0, 1, kOpReg), 1, 67, 8},
    {"srl by 63", EncodeR(0, 5, kOpReg), kMin64, 63, 1},
    {"srl by 96", EncodeR(0, 5, kOpReg), kMin64, 96, uint64_t{1} << 31},
    {"sra by 63", EncodeR(0x20, 5, kOpReg), kMin64, 63, kAllOnes},
    {"sra by 65", EncodeR(0x20, 5, kOpReg), kMin64, 65, 0xC000'0000'0000'0000},
    {"sllw by 31", EncodeR(0, 1, kOpReg32), 1, 31, kMin32Sext},
    {"sllw by 32", EncodeR(0, 1, kOpReg32), 0x8000'0000, 32, kMin32Sext},
    {"srlw by 31", EncodeR(0, 5, kOpReg32), 0x8000'0000, 31, 1},
    {"srlw by 64", EncodeR(0, 5, kOpReg32), 0x8000'0000, 64, kMin32Sext},
    {"sraw by 31", EncodeR(0x20, 5, kOpReg32), 0x8000'0000, 31, kAllOnes},
    {"slli by 63", EncodeI(63, 1, kOpImm), 1, 0, kMin64},
    {"srli by 32", EncodeI(32, 5, kOpImm), 0xFFFF'FFFF'0000'0000, 0, 0xFFFF'FFFF},
    {"srai by 63", EncodeI(0x400 | 63, 5, kOpImm), kMin64, 0, kAllOnes},
    {"slliw by 31", EncodeI(31, 1, kOpImm32), 1, 0, kMin32Sext},
    {"srliw by 31", EncodeI(31, 5, kOpImm32), kMin32Sext, 0, 1},
    {"sraiw by 31", EncodeI(0x400 | 31, 5, kOpImm32), 0x8000'0000, 0, kAllOnes},
    // W results sign-extend bit 31.
    {"addw", EncodeR(0, 0, kOpReg32), 0x7FFF'FFFF, 1, kMin32Sext},
    {"addiw", EncodeI(1, 0, kOpImm32), 0x7FFF'FFFF, 0, kMin32Sext},
    {"subw", EncodeR(0x20, 0, kOpReg32), 0, 1, kAllOnes},
    {"mulw", EncodeR(1, 0, kOpReg32), 0x1'0000, 0x8000, kMin32Sext},
    // High multiplies: the signedness of each operand.
    {"mulh -1*-1", EncodeR(1, 1, kOpReg), kAllOnes, kAllOnes, 0},
    {"mulh -1*1", EncodeR(1, 1, kOpReg), kAllOnes, 1, kAllOnes},
    {"mulh min*min", EncodeR(1, 1, kOpReg), kMin64, kMin64, uint64_t{1} << 62},
    {"mulhsu -1*(2^64-1)", EncodeR(1, 2, kOpReg), kAllOnes, kAllOnes, kAllOnes},
    {"mulhsu 1*(2^64-1)", EncodeR(1, 2, kOpReg), 1, kAllOnes, 0},
    {"mulhu (2^64-1)^2", EncodeR(1, 3, kOpReg), kAllOnes, kAllOnes, kAllOnes - 1},
    // Signed versus unsigned compares on -1 (immediates sign-extend first).
    {"slt -1<0", EncodeR(0, 2, kOpReg), kAllOnes, 0, 1},
    {"sltu -1<0", EncodeR(0, 3, kOpReg), kAllOnes, 0, 0},
    {"slti -1<0", EncodeI(0, 2, kOpImm), kAllOnes, 0, 1},
    {"sltiu 0<-1", EncodeI(-1, 3, kOpImm), 0, 0, 1},
    {"sltiu -1<-1", EncodeI(-1, 3, kOpImm), kAllOnes, 0, 0},
};

TEST(IntegerSpecTest, EveryPathMatchesTheManual) {
  for (const SpecCase& c : kSpecCases) {
    const DecodedInstr d = Decode(c.word);
    ASSERT_TRUE(d.valid()) << c.what;

    // Per instruction: the interpreter alone.
    {
      MachineConfig config;
      config.map.ram_size = 1 << 20;
      config.tuning.superblock_entries = 0;
      Machine machine(config);
      Hart& hart = machine.hart(0);
      machine.bus().Write(kRam, 4, c.word);
      hart.set_pc(kRam);
      hart.set_gpr(t0, c.rs1);
      hart.set_gpr(t1, c.rs2);
      hart.Tick();
      EXPECT_EQ(hart.gpr(t2), c.expected) << c.what << " (per instruction)";
    }

    // Inside a lowered block: a first pass decodes, the second builds and runs it.
    {
      MachineConfig config;
      config.map.ram_size = 1 << 20;
      Machine machine(config);
      Hart& hart = machine.hart(0);
      machine.bus().Write(kRam, 4, c.word);
      machine.bus().Write(kRam + 4, 4, 0x10500073);  // wfi ends the block
      hart.set_gpr(t0, c.rs1);
      hart.set_gpr(t1, c.rs2);
      for (int pass = 0; pass < 2; ++pass) {
        hart.set_gpr(t2, 0);
        hart.set_pc(kRam);
        hart.RunBatch(1, ~uint64_t{0});
      }
      EXPECT_EQ(hart.threaded_blocks(), 1u) << c.what;
      EXPECT_EQ(hart.gpr(t2), c.expected) << c.what << " (lowered block)";
    }

    // Folded: the constant folder evaluates register-immediate ops on a known rs1.
    // rs1 is built in t2 by lui + slli/ori steps and the op reads and writes t2, so
    // the whole chain lowers to one kConstChain holding the result.
    if (IsAluImm(d.op)) {
      MachineConfig config;
      config.map.ram_size = 1 << 20;
      Machine machine(config);
      Hart& hart = machine.hart(0);
      Assembler a(kRam);
      a.Lui(t2, 0);
      for (int shift = 55; shift >= 0; shift -= 11) {
        if (shift != 55) {
          a.Slli(t2, t2, 11);
        }
        a.Ori(t2, t2, static_cast<int32_t>((c.rs1 >> shift) & 0x7FF));
      }
      Image image = std::move(a.Finish()).value();
      const uint32_t op_on_t2 = (c.word & ~(31u << 15)) | (7u << 15);  // rs1 = t2
      image.bytes.resize(image.bytes.size() + 8);
      const uint32_t tail[2] = {op_on_t2, 0x10500073};  // op, then wfi
      std::memcpy(image.bytes.data() + image.bytes.size() - 8, tail, 8);
      machine.LoadImage(image.base, image.bytes);
      const uint64_t chain = image.bytes.size() / 4 - 1;
      for (int pass = 0; pass < 2; ++pass) {  // the chain, then the wfi
        hart.set_waiting(false);
        hart.set_pc(kRam);
        hart.RunBatch(chain + 1, ~uint64_t{0});
      }
      EXPECT_EQ(hart.gpr(t2), c.expected) << c.what << " (folded)";
      // A one-step budget cannot fit the chain: only a fused op misfits.
      hart.set_waiting(false);
      hart.set_pc(kRam);
      hart.RunBatch(1, ~uint64_t{0});
      EXPECT_EQ(hart.threaded_deopts(), 1u) << c.what << " (chain not folded)";
    }
  }
}

// -- WFI idle fast-forward (Machine::FastForwardIdle). ------------------------------

TEST(IdleFastForwardTest, WakesOnExactCycleOfPerInstructionLoop) {
  // A hart that parks in WFI until an mtimecmp deadline must wake on exactly the
  // same cycle whether the machine single-steps every idle round or fast-forwards.
  const auto run = [](bool batched) {
    MachineConfig config;
    Machine machine(config);
    Hart& hart = machine.hart(0);
    Assembler a(kRam);
    a.Li(t0, 0x200'0000 + Clint::kMtimecmpBase);
    a.Li(t1, 40);  // wake at mtime tick 40
    a.Sd(t1, t0, 0);
    a.Li(t2, uint64_t{1} << 7);  // mie.MTIE; mstatus.MIE stays 0, so no trap is taken
    a.Csrw(kCsrMie, t2);
    a.Wfi();
    a.Li(t1, 0x10'0000);  // finisher
    a.Li(t2, 0x5555);     // pass
    a.Sw(t2, t1, 0);
    Image image = std::move(a.Finish()).value();
    machine.LoadImage(image.base, image.bytes);
    hart.set_pc(image.entry);
    bool finished = false;
    if (batched) {
      finished = machine.RunUntilFinished(100000);
    } else {
      for (uint64_t round = 0; round < 100000 && !machine.finisher().finished();
           ++round) {
        machine.StepAll();
      }
      finished = machine.finisher().finished();
    }
    return std::make_tuple(finished, hart.cycles(), hart.instret(),
                           machine.clint().mtime());
  };
  const auto fast_forwarded = run(true);
  const auto stepped = run(false);
  EXPECT_TRUE(std::get<0>(fast_forwarded));
  EXPECT_EQ(fast_forwarded, stepped);
}

// -- Quantum barrier continuations (DESIGN.md §2i). --------------------------------

TEST(QuantumScheduleTest, HandlerThatSilencesMtipTrapsOnce) {
  // Hart 0 takes an M-timer interrupt mid-segment and finishes its quantum in a
  // barrier continuation. Its handler silences MTIP with an mtimecmp store and
  // returns with mret; the continuation must see the lowered line, or the stale
  // MTIP traps again on every mret for the rest of the quantum.
  // Returns (handler entries, pooled quanta).
  const auto run = [](bool parallel) {
    MachineConfig config;
    config.hart_count = 2;
    config.tuning.parallel_harts = parallel;
    Machine machine(config);
    constexpr uint64_t kClint = 0x200'0000;
    Assembler a(kRam);
    a.Csrr(t0, kCsrMhartid);
    a.Bnez(t0, "park");
    a.La(t1, "handler");
    a.Csrw(kCsrMtvec, t1);
    a.Li(s0, 0);  // handler entries
    a.Li(t0, kClint + Clint::kMtimeOffset);
    a.Ld(t1, t0, 0);
    a.Addi(t1, t1, 20);
    a.Li(t0, kClint + Clint::kMtimecmpBase);
    a.Sd(t1, t0, 0);
    a.Li(t2, uint64_t{1} << 7);  // mie.MTIE
    a.Csrw(kCsrMie, t2);
    a.Csrrsi(zero, kCsrMstatus, 8);  // mstatus.MIE
    a.Li(t3, 20'000);
    a.Bind("spin");
    a.Addi(t3, t3, -1);
    a.Bnez(t3, "spin");
    a.Li(t1, 0x10'0000);  // finisher
    a.Li(t2, 0x5555);     // pass
    a.Sw(t2, t1, 0);
    a.Bind("park");
    a.Wfi();
    a.J("park");
    a.Bind("handler");
    a.Addi(s0, s0, 1);
    a.Li(t5, kClint + Clint::kMtimecmpBase);
    a.Li(t6, ~uint64_t{0});
    a.Sd(t6, t5, 0);
    a.Mret();
    Image image = std::move(a.Finish()).value();
    machine.LoadImage(image.base, image.bytes);
    for (unsigned i = 0; i < 2; ++i) {
      machine.hart(i).set_pc(image.entry);
    }
    EXPECT_TRUE(machine.RunUntilFinished(1'000'000));
    return std::make_pair(machine.hart(0).gpr(s0), machine.pooled_quanta());
  };
  EXPECT_EQ(run(/*parallel=*/false), std::make_pair(uint64_t{1}, uint64_t{0}));
  const auto [traps, pooled] = run(/*parallel=*/true);
  EXPECT_EQ(traps, 1u);
  EXPECT_GE(pooled, 1u);  // the parallel leg does reach the worker pool
}

// -- Worker-pool dispatch (DESIGN.md §2i). ------------------------------------------
// With parallel_harts a quantum goes to the pool only when its segment bound
// reaches Machine::kMinPooledSegment; either way the run is bit-identical to the
// serial hart order.

std::vector<uint8_t> RamBytes(const Snapshot& snapshot) {
  std::vector<uint8_t> bytes(snapshot.ram->size());
  snapshot.ram->CopyTo(bytes.data());
  return bytes;
}

void ExpectSameSnapshot(Machine& serial, Machine& parallel) {
  Snapshot serial_snap, parallel_snap;
  serial.SaveSnapshot(serial_snap);
  parallel.SaveSnapshot(parallel_snap);
  EXPECT_EQ(serial_snap.state, parallel_snap.state);
  EXPECT_EQ(RamBytes(serial_snap), RamBytes(parallel_snap));
}

std::vector<uint8_t> MonitorStateBytes(const Monitor& monitor) {
  StateWriter writer;
  monitor.SaveState(writer);
  return writer.Take();
}

TEST(PoolDispatchTest, MonitoredMachineReachesThePoolAndMatchesSerial) {
  // Boot holds quanta at one tick (the harts start in the firmware world and start
  // each other through it); once every hart computes in the OS and the hold has run
  // out, the monitored machine batches to its next timer edge as a native one does,
  // and its 4096-instruction quanta go to the pool. The pooled run must end
  // bit-identical to the serial one, monitor state included: handlers run at
  // barriers, between pooled segments.
  const auto boot = [](bool parallel) {
    PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 4, false);
    profile.machine.tuning.parallel_harts = parallel;
    KernelConfig config;
    config.base = profile.kernel_base;
    config.hart_count = 4;
    KernelBuilder kb(config);
    kb.EmitStartSecondaries();
    kb.EmitMemoryLoop(100'000'000);  // effectively endless
    kb.EmitFinish(/*pass=*/true);
    kb.DefineSecondaryMain();
    kb.EmitComputeLoop(1'000'000'000, 16);
    kb.EmitSecondaryPark();
    return BootSystem(profile, DeployMode::kMiralis, kb.Finish());
  };
  System serial = boot(/*parallel=*/false);
  System parallel = boot(/*parallel=*/true);
  ASSERT_NE(parallel.monitor, nullptr);
  const uint64_t budget = 1'200'000;
  Machine::RunProgress sp, pp;
  serial.machine->RunUntilFinished(budget, 4 * budget, &sp);
  parallel.machine->RunUntilFinished(budget, 4 * budget, &pp);
  ASSERT_FALSE(parallel.machine->finisher().finished());
  ASSERT_EQ(sp.retired, pp.retired);
  EXPECT_GE(pp.retired, 1'000'000u);
  EXPECT_GT(parallel.machine->pooled_quanta(), 0u);
  EXPECT_EQ(serial.machine->pooled_quanta(), 0u);
  ExpectSameSnapshot(*serial.machine, *parallel.machine);
  EXPECT_EQ(MonitorStateBytes(*serial.monitor), MonitorStateBytes(*parallel.monitor));
}

TEST(PoolDispatchTest, ArmedTimerPhasesRunInlineAndMatchSerial) {
  // Hart 0 alternates two phases. Armed: it keeps mtimecmp 6 ticks (at most 300
  // cycles at 50 cycles a tick) ahead of its own clock, so the horizon keeps every
  // quantum's segment bound under kMinPooledSegment (512), and each rearm, about
  // 140 cycles after the last, lands before the comparator falls behind. (It reads
  // mcycle, not mtime: mtime is frozen for a quantum, so a deadline taken from it
  // falls behind within one long quantum.) Disarmed: no comparator lies in the
  // future, so the 4096-instruction batch cap sizes the quanta. Harts 1-3 count
  // and publish their counts while reading hart 0's phase count, so the barrier's
  // store order shows up in RAM.
  constexpr uint64_t kClint = 0x200'0000;
  constexpr uint64_t kData = kRam + 0x10'0000;
  const auto build = [](bool parallel) {
    MachineConfig config;
    config.hart_count = 4;
    config.tuning.parallel_harts = parallel;
    auto machine = std::make_unique<Machine>(config);
    Assembler a(kRam);
    a.Li(t2, kData);
    a.Csrr(t0, kCsrMhartid);
    a.Bnez(t0, "worker");
    a.Li(s2, kClint + Clint::kMtimecmpBase);
    a.Li(s3, MachineConfig().cost.mtime_tick_cycles);
    a.Bind("phase");
    a.Li(s1, 512);
    a.Bind("armed");
    a.Csrr(t1, kCsrMcycle);
    a.Divu(t1, t1, s3);  // hart 0's clock in ticks: mtime at the next barrier
    a.Addi(t1, t1, 6);   // a few hundred cycles ahead
    a.Sd(t1, s2, 0);
    a.Li(t3, 60);
    a.Bind("armed_spin");
    a.Addi(t3, t3, -1);
    a.Bnez(t3, "armed_spin");
    a.Addi(s1, s1, -1);
    a.Bnez(s1, "armed");
    a.Li(t1, ~uint64_t{0});
    a.Sd(t1, s2, 0);
    a.Li(t3, 20'000);
    a.Bind("disarmed_spin");
    a.Addi(t3, t3, -1);
    a.Bnez(t3, "disarmed_spin");
    a.Addi(s4, s4, 1);
    a.Sd(s4, t2, 0);
    a.J("phase");
    a.Bind("worker");
    a.Slli(t1, t0, 3);
    a.Add(t1, t1, t2);
    a.Bind("count");
    a.Addi(s0, s0, 1);
    a.Sd(s0, t1, 0);
    a.Ld(s5, t2, 0);
    a.Add(s6, s6, s5);
    a.J("count");
    Image image = std::move(a.Finish()).value();
    machine->LoadImage(image.base, image.bytes);
    for (unsigned i = 0; i < 4; ++i) {
      machine->hart(i).set_pc(image.entry);
    }
    return machine;
  };
  const std::unique_ptr<Machine> serial = build(/*parallel=*/false);
  const std::unique_ptr<Machine> parallel = build(/*parallel=*/true);
  // Short slices, so each phase spans many of them: a slice that retires work
  // without a pooled quantum ran inline quanta only.
  bool saw_inline = false;
  bool saw_pooled = false;
  uint64_t retired = 0;
  while (retired < 1'500'000) {
    const uint64_t pooled_before = parallel->pooled_quanta();
    const Machine::SliceResult s = serial->RunSlice(2'000, 8'000);
    const Machine::SliceResult p = parallel->RunSlice(2'000, 8'000);
    ASSERT_EQ(s.retired, p.retired);
    ASSERT_GT(p.retired, 0u);
    (parallel->pooled_quanta() == pooled_before ? saw_inline : saw_pooled) = true;
    retired += p.retired;
  }
  EXPECT_TRUE(saw_inline);
  EXPECT_TRUE(saw_pooled);
  EXPECT_GE(parallel->hart(0).gpr(s4), 2u);  // completed armed + disarmed phases
  EXPECT_EQ(serial->pooled_quanta(), 0u);
  ExpectSameSnapshot(*serial, *parallel);
}

TEST(PoolDispatchTest, ParkedWorkersWakeForTheNextRunCall) {
  // Between run calls the pool's workers spin for a bounded time and then park, so
  // a sleep longer than that bound leaves every worker parked and the next run
  // call's first pooled quantum must wake them. Hart 0 computes and sends harts 1-3
  // an IPI now and then; each of them computes a little, publishes its count, and
  // waits in WFI for the next IPI, so most quanta run hart 0 alone while harts 1-3
  // are parked. The run must end as the serial schedule does.
  constexpr uint64_t kClint = 0x200'0000;
  constexpr uint64_t kData = kRam + 0x10'0000;
  const auto build = [](bool parallel) {
    MachineConfig config;
    config.hart_count = 4;
    config.tuning.parallel_harts = parallel;
    auto machine = std::make_unique<Machine>(config);
    Assembler a(kRam);
    a.Li(t2, kData);
    a.Li(s2, kClint + Clint::kMsipBase);
    a.Csrr(t0, kCsrMhartid);
    a.Bnez(t0, "worker");
    a.Li(t1, 1);
    a.Bind("round");
    a.Li(t3, 30'000);
    a.Bind("spin0");
    a.Addi(t3, t3, -1);
    a.Bnez(t3, "spin0");
    a.Addi(s4, s4, 1);
    a.Sd(s4, t2, 0);
    a.Sw(t1, s2, 4);  // msip of harts 1-3
    a.Sw(t1, s2, 8);
    a.Sw(t1, s2, 12);
    a.J("round");
    a.Bind("worker");
    a.Li(t1, uint64_t{1} << 3);  // mie.MSIE: WFI wakes on the IPI, mstatus.MIE stays 0
    a.Csrs(kCsrMie, t1);
    a.Slli(t4, t0, 2);
    a.Add(t4, t4, s2);  // own msip
    a.Slli(t5, t0, 3);
    a.Add(t5, t5, t2);  // own count slot
    a.Bind("work");
    a.Li(t3, 5'000);
    a.Bind("spin");
    a.Addi(t3, t3, -1);
    a.Bnez(t3, "spin");
    a.Addi(s0, s0, 1);
    a.Sd(s0, t5, 0);
    a.Ld(s5, t2, 0);
    a.Add(s6, s6, s5);
    a.Wfi();
    a.Sw(zero, t4, 0);
    a.J("work");
    Image image = std::move(a.Finish()).value();
    machine->LoadImage(image.base, image.bytes);
    for (unsigned i = 0; i < 4; ++i) {
      machine->hart(i).set_pc(image.entry);
    }
    return machine;
  };
  const std::unique_ptr<Machine> serial = build(/*parallel=*/false);
  const std::unique_ptr<Machine> parallel = build(/*parallel=*/true);
  bool saw_parked = false;
  for (int call = 0; call < 8; ++call) {
    // 2 ms: far past the spin bound, a few dozen microseconds.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const uint64_t pooled_before = parallel->pooled_quanta();
    const uint64_t budget = 150'000;
    Machine::RunProgress sp, pp;
    serial->RunUntilFinished(budget, 4 * budget, &sp);
    parallel->RunUntilFinished(budget, 4 * budget, &pp);
    ASSERT_EQ(sp.retired, pp.retired);
    EXPECT_GT(parallel->pooled_quanta(), pooled_before) << "run call " << call;
    saw_parked = saw_parked || (!parallel->hart(0).waiting() && parallel->hart(1).waiting() &&
                                parallel->hart(2).waiting() && parallel->hart(3).waiting());
  }
  EXPECT_TRUE(saw_parked);
  EXPECT_GE(parallel->hart(0).gpr(s4), 8u);  // hart 0's rounds
  EXPECT_GE(parallel->hart(1).gpr(s0), 8u);  // hart 1 woke for each
  EXPECT_EQ(serial->pooled_quanta(), 0u);
  ExpectSameSnapshot(*serial, *parallel);
}

// -- Cross-hart exchanges under a monitor (DESIGN.md §2i). -------------------------
// A monitor holds a multi-hart machine's quanta at one mtime tick while a cross-hart
// exchange is live (Machine::HoldTickHorizon), and lets them batch to the next timer
// edge otherwise.

// Hart 0 computes long enough for boot's hold to run out (about 1,200 ticks against
// a 512-tick hold), opens an exchange with one IPI round, then times `calls` SBI
// send_ipi rounds to harts 1-3, each waiting until all three took the IPI, and then
// `calls` SBI remote sfence.vma calls to them, with the time CSR. The elapsed ticks
// land in result slots kScratch and kScratch + 1. Harts 1-3 compute throughout.
Image CrossHartKernel(const PlatformProfile& profile, uint64_t calls) {
  KernelConfig config;
  config.base = profile.kernel_base;
  config.hart_count = 4;
  KernelBuilder kb(config);
  Assembler& a = kb.assembler();
  constexpr uint64_t kTargets = 0b1110;
  kb.EmitStartSecondaries();
  kb.EmitComputeLoop(10'000, 16);
  kb.EmitSendIpi(kTargets);
  kb.EmitWaitSlotAtLeast(KernelSlots::kIpisTaken, 3);
  kb.EmitTimeRead();
  a.Mv(s8, a0);
  a.Li(s9, 3);  // IPIs the targets have taken so far
  a.Li(s10, calls);
  a.Bind("xh_ipi");
  kb.EmitSendIpi(kTargets);
  a.Addi(s9, s9, 3);
  a.Bind("xh_ipi_wait");
  a.La(t0, "k_results");
  a.Ld(t1, t0, static_cast<int32_t>(8 * KernelSlots::kIpisTaken));
  a.Bltu(t1, s9, "xh_ipi_wait");
  a.Addi(s10, s10, -1);
  a.Bnez(s10, "xh_ipi");
  kb.EmitTimeRead();
  a.Sub(a0, a0, s8);
  kb.EmitStoreResult(KernelSlots::kScratch);
  kb.EmitTimeRead();
  a.Mv(s8, a0);
  a.Li(s10, calls);
  a.Bind("xh_fence");
  kb.EmitRemoteFence(kTargets);
  a.Addi(s10, s10, -1);
  a.Bnez(s10, "xh_fence");
  kb.EmitTimeRead();
  a.Sub(a0, a0, s8);
  kb.EmitStoreResult(KernelSlots::kScratch + 1);
  kb.EmitFinish(/*pass=*/true);
  kb.DefineSecondaryMain();
  kb.EmitComputeLoop(1'000'000'000, 16);
  kb.EmitSecondaryPark();
  return kb.Finish();
}

System BootCrossHart(DeployMode mode, uint64_t calls) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 4, false);
  profile.machine.tuning.parallel_harts = true;
  return BootSystem(profile, mode, CrossHartKernel(profile, calls));
}

constexpr uint64_t kCrossHartCalls = 64;
constexpr uint64_t kCrossHartBudget = 20'000'000;

TEST(CrossHartExchangeTest, IpisAndRemoteFencesStayPrompt) {
  // Simulated cycles per call, as hart 0 times them. Between exchanges the machine
  // batches (the quiet phase reaches the pool); while they are live the monitor's
  // hold keeps every quantum at one tick, so an IPI reaches a computing target
  // within a tick and a fence's acknowledgement returns as promptly as it did when
  // every monitored quantum ended at the next tick. Reference figures: this test's
  // guest run at commit 3d07275, before the hold, where every quantum of a monitored
  // multi-hart machine ended at the next tick.
  struct Case {
    DeployMode mode;
    double ipi;    // cycles per send_ipi round (three targets, acknowledged)
    double fence;  // cycles per remote sfence.vma call
  };
  const Case cases[] = {
      {DeployMode::kMiralis, 604.7, 513.3},
      {DeployMode::kMiralisNoOffload, 5918.0, 6335.2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(DeployModeName(c.mode));
    System system = BootCrossHart(c.mode, kCrossHartCalls);
    ASSERT_TRUE(system.machine->RunUntilFinished(kCrossHartBudget));
    ASSERT_EQ(system.machine->finisher().exit_code(), 0u);
    const double tick =
        static_cast<double>(system.machine->config().cost.mtime_tick_cycles);
    const double calls = static_cast<double>(kCrossHartCalls);
    const double ipi =
        static_cast<double>(system.ReadResult(KernelSlots::kScratch)) * tick / calls;
    const double fence =
        static_cast<double>(system.ReadResult(KernelSlots::kScratch + 1)) * tick / calls;
    EXPECT_NEAR(ipi, c.ipi, 0.05 * c.ipi);
    EXPECT_NEAR(fence, c.fence, 0.05 * c.fence);
    EXPECT_GT(system.machine->pooled_quanta(), 0u);
  }
}

TEST(CrossHartExchangeTest, SplitRunInsideAHoldMatchesTheUninterruptedRun) {
  // A snapshot taken while a hold is still ahead carries it: the restored machine
  // keeps the one-tick quanta the uninterrupted run keeps, and both end identical.
  const uint64_t budget = kCrossHartBudget;
  System whole = BootCrossHart(DeployMode::kMiralis, kCrossHartCalls);
  Machine::RunProgress wp;
  ASSERT_TRUE(whole.machine->RunUntilFinished(budget, 4 * budget, &wp));

  // Phase 1 stops in the IPI rounds (at about 1.06M of 1.09M instructions), with the
  // hold about 500 ticks ahead of mtime.
  System first = BootCrossHart(DeployMode::kMiralis, kCrossHartCalls);
  Machine::RunProgress p1;
  first.machine->RunUntilFinished(1'060'000, 4 * budget, &p1);
  ASSERT_FALSE(first.machine->finisher().finished());
  ASSERT_GT(first.machine->hold_tick(), first.machine->clint().mtime())
      << "the split must fall inside a hold";
  ASSERT_GT(first.ReadResult(KernelSlots::kIpisTaken), 3u);
  Snapshot snapshot;
  first.machine->SaveSnapshot(snapshot);
  const std::vector<uint8_t> monitor_state = MonitorStateBytes(*first.monitor);

  System second = BootCrossHart(DeployMode::kMiralis, kCrossHartCalls);
  ASSERT_TRUE(second.machine->RestoreSnapshot(snapshot));
  StateReader reader(monitor_state);
  ASSERT_TRUE(second.monitor->LoadState(reader));
  Machine::RunProgress p2;
  ASSERT_TRUE(
      second.machine->RunUntilFinished(budget - p1.retired, 4 * budget - p1.rounds, &p2));
  EXPECT_EQ(p1.retired + p2.retired, wp.retired);
  EXPECT_EQ(second.ReadResult(KernelSlots::kScratch),
            whole.ReadResult(KernelSlots::kScratch));
  // Forks, so that both sides' debug-only bus generations restart alike.
  ExpectSameSnapshot(*whole.machine->Fork(), *second.machine->Fork());
  EXPECT_EQ(MonitorStateBytes(*whole.monitor), MonitorStateBytes(*second.monitor));
}

}  // namespace
}  // namespace vfm
