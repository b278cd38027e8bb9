// Integration-grade unit tests for the monitor (src/core/monitor): trap dispatch,
// world switches, shadow-CSR round trips, virtual-device emulation, fast path vs
// re-injection equivalence, and the deny actions.

#include <gtest/gtest.h>

#include <cstring>

#include "src/common/bits.h"
#include "src/common/hash.h"
#include "src/isa/sbi.h"
#include "src/kernel/kernel.h"
#include "src/platform/platform.h"
#include "src/workloads/workloads.h"

namespace vfm {
namespace {

constexpr uint64_t kBudget = 30'000'000;

Image KernelWith(const PlatformProfile& profile,
                 const std::function<void(KernelBuilder&)>& body,
                 uint64_t timer_interval = 0) {
  KernelConfig config;
  config.base = profile.kernel_base;
  config.timer_interval = timer_interval;
  KernelBuilder kb(config);
  body(kb);
  kb.EmitFinish(/*pass=*/true);
  return kb.Finish();
}

TEST(MonitorTest, FirmwarePmpWritesReachPhysicalBank) {
  // After boot, the firmware's PMP programming (entries 0 and 1) must be installed in
  // the physical bank at the vPMP slots, with OS-world semantics.
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  System system = BootSystem(profile, DeployMode::kMiralis,
                             KernelWith(profile, [](KernelBuilder&) {}));
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  const PmpBank& phys = system.machine->hart(0).csrs().pmp();
  // vPMP 0 (firmware self-protection, ---) landed at the first virtual slot.
  const PmpCfg slot0 = phys.GetCfg(VpmpLayout::kVpmpFirst);
  EXPECT_EQ(slot0.a, PmpAddrMode::kNapot);
  EXPECT_FALSE(slot0.r);
  // vPMP 1 (all-memory RWX) at the next slot.
  const PmpCfg slot1 = phys.GetCfg(VpmpLayout::kVpmpFirst + 1);
  EXPECT_TRUE(slot1.r && slot1.w && slot1.x);
  // Which means: the OS cannot read firmware memory, but can read its own.
  EXPECT_FALSE(phys.Check(profile.firmware_base, 8, AccessType::kLoad,
                          PrivMode::kSupervisor));
  EXPECT_TRUE(phys.Check(profile.kernel_base, 8, AccessType::kLoad,
                         PrivMode::kSupervisor));
}

TEST(MonitorTest, MonitorMemoryInvisibleToOs) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  // A kernel that tries to read monitor memory: the load must fault. The fault is
  // delegated (load access fault is in the firmware's medeleg), so the kernel's
  // handler sees it; our kernel treats it as fatal and the machine stops with code 1.
  KernelConfig config;
  config.base = profile.kernel_base;
  KernelBuilder kb(config);
  Assembler& a = kb.assembler();
  a.Li(t0, profile.monitor_base);
  a.Ld(t1, t0, 0);  // should never succeed
  kb.EmitFinish(/*pass=*/true);
  System system = BootSystem(profile, DeployMode::kMiralis, kb.Finish());
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  EXPECT_NE(system.machine->finisher().exit_code(), 0u);
}

TEST(MonitorTest, TimeReadValuesMatchAcrossConfigurations) {
  // The emulated time value must be architecturally equivalent whether it comes from
  // the fast path, the virtualized firmware, or native firmware.
  for (DeployMode mode :
       {DeployMode::kNative, DeployMode::kMiralis, DeployMode::kMiralisNoOffload}) {
    SCOPED_TRACE(DeployModeName(mode));
    PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
    System system = BootSystem(profile, mode, KernelWith(profile, [](KernelBuilder& kb) {
                                 kb.EmitTimeRead();
                                 kb.EmitStoreResult(KernelSlots::kScratch);
                                 kb.EmitTimeRead();
                                 kb.EmitStoreResult(KernelSlots::kScratch + 1);
                               }));
    ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
    const uint64_t first = system.ReadResult(KernelSlots::kScratch);
    const uint64_t second = system.ReadResult(KernelSlots::kScratch + 1);
    EXPECT_GT(first, 0u);
    EXPECT_GE(second, first);  // time is monotonic through every path
  }
}

TEST(MonitorTest, WorldSwitchPreservesOsSupervisorState) {
  // The OS's S-CSRs must survive a round trip through the virtualized firmware
  // (shadow save/install, §4.1).
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  KernelConfig config;
  config.base = profile.kernel_base;
  KernelBuilder kb(config);
  Assembler& a = kb.assembler();
  a.Li(t0, 0x1234'5678);
  a.Csrw(kCsrSscratch, t0);
  a.Li(a7, SbiExt::kBase);  // not fast-pathed: a full world switch round trip
  a.Li(a6, SbiFunc::kGetSpecVersion);
  a.Ecall();
  a.Csrr(a0, kCsrSscratch);
  kb.EmitStoreResult(KernelSlots::kScratch);
  a.Mv(a0, a1);  // the SBI result came back through a1
  kb.EmitStoreResult(KernelSlots::kScratch + 1);
  kb.EmitFinish(/*pass=*/true);
  System system = BootSystem(profile, DeployMode::kMiralis, kb.Finish());
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  EXPECT_EQ(system.ReadResult(KernelSlots::kScratch), 0x1234'5678u);
  EXPECT_EQ(system.ReadResult(KernelSlots::kScratch + 1), 0x0200'0000u);  // spec version
  EXPECT_GE(system.monitor->stats().world_switches, 1u);
}

TEST(MonitorTest, VirtualClintMmioEmulation) {
  // The firmware reads mtime through the protected CLINT window; the monitor
  // emulates the access (mmio_emulations > 0 after a no-offload time read).
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  System system = BootSystem(profile, DeployMode::kMiralisNoOffload,
                             KernelWith(profile, [](KernelBuilder& kb) {
                               kb.EmitTimeRead();
                             }));
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  EXPECT_GT(system.monitor->stats().mmio_emulations, 0u);
  EXPECT_GT(system.monitor->stats().emulated_instrs, 0u);
}

TEST(MonitorTest, FastPathCountsAndAvoidsWorldSwitches) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  System system = BootSystem(profile, DeployMode::kMiralis,
                             KernelWith(profile, [](KernelBuilder& kb) {
                               for (int i = 0; i < 50; ++i) {
                                 kb.EmitTimeRead();
                               }
                               kb.EmitSetTimerRelative(1'000'000);
                             }));
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  const MonitorStats& stats = system.monitor->stats();
  EXPECT_GE(stats.fastpath_hits, 51u);
  EXPECT_GE(stats.os_traps_by_cause[static_cast<unsigned>(OsTrapCause::kTimeRead)], 50u);
  EXPECT_GE(stats.os_traps_by_cause[static_cast<unsigned>(OsTrapCause::kSetTimer)], 1u);
  // The boot mret plus possibly a banner's worth of putchar switches, but the fast
  // path ops themselves caused none: far fewer switches than fast-path hits.
  EXPECT_LT(stats.world_switches, stats.fastpath_hits);
}

TEST(MonitorTest, NoOffloadReinjectsEverything) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  System system = BootSystem(profile, DeployMode::kMiralisNoOffload,
                             KernelWith(profile, [](KernelBuilder& kb) {
                               for (int i = 0; i < 20; ++i) {
                                 kb.EmitTimeRead();
                               }
                             }));
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  const MonitorStats& stats = system.monitor->stats();
  EXPECT_EQ(stats.fastpath_hits, 0u);
  EXPECT_GE(stats.world_switches, 20u);
}

TEST(MonitorTest, TimerInterruptInjectionIntoFirmware) {
  // With no offload, timer delivery requires injecting a virtual M-timer interrupt
  // into the firmware, which then raises STIP for the OS.
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  System system = BootSystem(
      profile, DeployMode::kMiralisNoOffload,
      KernelWith(
          profile,
          [](KernelBuilder& kb) {
            kb.EmitSetTimerRelative(100);
            kb.EmitWaitSlotAtLeast(KernelSlots::kTimerTicks, 3);
          },
          /*timer_interval=*/300));
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  EXPECT_GE(system.ReadResult(KernelSlots::kTimerTicks), 3u);
  EXPECT_GT(system.monitor->stats().injected_interrupts, 0u);
}

TEST(MonitorTest, LogAndContinueDenyMode) {
  // Production deny behaviour (§5.2): log, return arbitrary values, keep running.
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  System system;
  system.machine = std::make_unique<Machine>(profile.machine);
  // A firmware that reads OS memory in its trap path would be denied under a policy;
  // here we exercise DenyAction directly through a monitor with the relaxed config.
  MonitorConfig mconfig;
  mconfig.monitor_base = profile.monitor_base;
  mconfig.monitor_size = profile.monitor_size;
  mconfig.firmware_entry = profile.firmware_base;
  mconfig.stop_on_policy_deny = false;
  Monitor monitor(system.machine.get(), mconfig);
  Hart& hart = system.machine->hart(0);
  // Stage a fake firmware load instruction and trap state.
  const uint32_t ld = 0x00033283;  // ld t0, 0(t1)
  system.machine->bus().Write(profile.firmware_base, 4, ld);
  hart.csrs().Set(kCsrMepc, profile.firmware_base);
  monitor.Boot();
  monitor.DenyAction(hart, "test access", 0x1234);
  EXPECT_FALSE(system.machine->finisher().finished());
  EXPECT_EQ(monitor.stats().policy_denials, 1u);
  EXPECT_EQ(hart.pc(), profile.firmware_base + 4);  // skipped past the instruction
  EXPECT_EQ(hart.gpr(5), 0u);                       // rd zeroed
}

TEST(MonitorTest, StatsClassifyCauses) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  System system = BootSystem(profile, DeployMode::kMiralis,
                             KernelWith(profile, [](KernelBuilder& kb) {
                               kb.EmitTimeRead();
                               kb.EmitSendIpi(1);
                               kb.EmitRemoteFence(1);
                               kb.EmitMisalignedLoad();
                             }));
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  const auto& causes = system.monitor->stats().os_traps_by_cause;
  EXPECT_GE(causes[static_cast<unsigned>(OsTrapCause::kTimeRead)], 1u);
  EXPECT_GE(causes[static_cast<unsigned>(OsTrapCause::kIpi)], 1u);
  EXPECT_GE(causes[static_cast<unsigned>(OsTrapCause::kRemoteFence)], 1u);
  EXPECT_GE(causes[static_cast<unsigned>(OsTrapCause::kMisaligned)], 1u);
}

TEST(MonitorTest, CustomCsrsVirtualizedOnP550) {
  // The P550 profile exposes four custom M-mode CSRs; a firmware writing them (as the
  // real board's firmware does for speculation control) must work virtualized. Our
  // opensbi-sim doesn't touch them, so exercise through the virtual CSR file.
  PlatformProfile profile = MakePlatform(PlatformKind::kP550Sim, 1, false);
  System system = BootSystem(profile, DeployMode::kMiralis,
                             KernelWith(profile, [](KernelBuilder&) {}));
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  CsrFile& vcsr = system.monitor->vctx(0).csrs();
  EXPECT_TRUE(vcsr.CsrExists(kCsrCustom0));
  EXPECT_TRUE(vcsr.WriteCsr(kCsrCustom0, PrivMode::kMachine, /*virt=*/false, 0x5EC));
  EXPECT_EQ(vcsr.Get(kCsrCustom0), 0x5ECu);
}

// What M-mode code sees after reading mtval2, which vf2-sim's H-less harts lack:
// a0..a2 = mcause, mtval and mepc as read by the firmware's own trap handler.
struct AbsentCsrProbe {
  uint64_t mcause;
  uint64_t mtval;
  uint64_t mepc;
};

AbsentCsrProbe ProbeMtval2(DeployMode mode) {
  const PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  Assembler a(profile.firmware_base);
  a.La(t1, "handler");
  a.Csrw(kCsrMtvec, t1);
  a.Csrr(t0, kCsrMtval2);
  a.Bind("handler");
  a.Csrr(a0, kCsrMcause);
  a.Csrr(a1, kCsrMtval);
  a.Csrr(a2, kCsrMepc);
  a.Bind("done");
  a.J("done");
  const Image firmware = a.Finish().value();

  Machine machine(profile.machine);
  EXPECT_TRUE(machine.LoadImage(firmware.base, firmware.bytes));
  std::unique_ptr<Monitor> monitor;
  if (mode == DeployMode::kNative) {
    machine.hart(0).set_pc(firmware.entry);
    machine.hart(0).set_priv(PrivMode::kMachine);
  } else {
    MonitorConfig config;
    config.monitor_base = profile.monitor_base;
    config.monitor_size = profile.monitor_size;
    config.firmware_entry = firmware.entry;
    monitor = std::make_unique<Monitor>(&machine, config);
    monitor->Boot();
  }
  const uint64_t done = firmware.Symbol("done");
  EXPECT_TRUE(machine.RunUntil([&] { return machine.hart(0).pc() == done; }, 10'000));
  const Hart& hart = machine.hart(0);
  return {hart.gpr(a0), hart.gpr(a1), hart.gpr(a2)};
}

TEST(MonitorTest, AbsentCsrTrapsNativelyAndVirtualized) {
  // mtval2 belongs to the H extension. Natively, reading it in M-mode on an H-less
  // hart raises illegal instruction; the same firmware under the monitor takes the
  // same virtual trap (EXPERIMENTS.md bug 19: the hart used to read 0 while the
  // monitor trapped).
  const AbsentCsrProbe native = ProbeMtval2(DeployMode::kNative);
  EXPECT_EQ(native.mcause, CauseValue(ExceptionCause::kIllegalInstr));
  EXPECT_EQ(native.mtval, 0x34B022F3u);  // csrr t0, mtval2
  const AbsentCsrProbe virtualized = ProbeMtval2(DeployMode::kMiralis);
  EXPECT_EQ(virtualized.mcause, native.mcause);
  EXPECT_EQ(virtualized.mtval, native.mtval);
  EXPECT_EQ(virtualized.mepc, native.mepc);
}

// ---------------------------------------------------------------------------------
// Exact time under the monitor. On a single hart the run loop stores mtime only at
// batch boundaries, and every read the monitor makes is synced to hart 0's clock
// (Clint::SyncedTime), as a native read is. Each case stops where the monitor is
// about to read time and pushes the hart's clock ahead of the stored counter; the
// read must return the synced time, not the stored one.

constexpr uint64_t kAheadTicks = 10;

// The time a synced read returns on `machine` right now, computed without syncing.
uint64_t SyncedNow(const Machine& machine) {
  return machine.hart(0).cycles() / machine.config().cost.mtime_tick_cycles;
}

// Moves hart 0's clock kAheadTicks past the stored mtime; returns the stored value.
uint64_t PushClockAhead(Machine& machine) {
  const uint64_t stored = machine.clint().mtime();
  machine.ChargeCycles(0, kAheadTicks * machine.config().cost.mtime_tick_cycles);
  EXPECT_GE(SyncedNow(machine), stored + kAheadTicks);
  return stored;
}

TEST(MonitorTimeTest, FastPathTimeReadIsSynced) {
  const PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  System system = BootSystem(profile, DeployMode::kMiralis,
                             KernelWith(profile, [](KernelBuilder& kb) {
                               kb.assembler().Bind("t_time_read");
                               kb.EmitTimeRead();
                             }));
  Machine& machine = *system.machine;
  const uint64_t read_pc = system.kernel.Symbol("t_time_read");
  ASSERT_TRUE(machine.RunUntil([&] { return machine.hart(0).pc() == read_pc; }, kBudget));
  const uint64_t stored = PushClockAhead(machine);
  const uint64_t before = SyncedNow(machine);
  const uint64_t hits = system.monitor->stats().fastpath_hits;
  machine.StepAll();
  ASSERT_EQ(system.monitor->stats().fastpath_hits, hits + 1);
  // Trap entry and the handler charge cycles before and after the read, so the
  // synced time at the read lies between the clock's time before and after the step.
  const uint64_t read = machine.hart(0).gpr(a0);
  EXPECT_GE(read, before) << "the stored mtime was " << stored;
  EXPECT_LE(read, SyncedNow(machine));
}

TEST(MonitorTimeTest, FirmwareTimeCsrIsSynced) {
  // rva23-sim is the board whose firmware has a time CSR; the monitor emulates the
  // firmware's read of it through the virtual CSR file's time source.
  const PlatformProfile profile = MakePlatform(PlatformKind::kRva23Sim, 1, false);
  System system = BootSystem(profile, DeployMode::kMiralis,
                             KernelWith(profile, [](KernelBuilder&) {}));
  Machine& machine = *system.machine;
  ASSERT_TRUE(system.monitor->in_firmware_world(0));
  PushClockAhead(machine);
  constexpr uint32_t kRdtimeA0 = 0xC0102573;  // csrrs a0, time, x0
  uint64_t gprs[32] = {};
  const EmulationResult result =
      system.monitor->vctx(0).EmulatePrivileged(Decode(kRdtimeA0), gprs);
  ASSERT_EQ(result.outcome, EmulationOutcome::kAdvance);
  EXPECT_EQ(gprs[a0], SyncedNow(machine));
}

TEST(MonitorTimeTest, FirmwareClintMtimeLoadIsSynced) {
  // Without offload the OS's time read reaches the firmware, which loads mtime from
  // the CLINT; the load traps on the protected window and the monitor emulates it.
  const PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  System system = BootSystem(profile, DeployMode::kMiralisNoOffload,
                             KernelWith(profile, [](KernelBuilder& kb) {
                               kb.EmitTimeRead();
                             }));
  Machine& machine = *system.machine;
  const Hart& hart = machine.hart(0);
  // The firmware's time emulation sets t0 to mtime's address, then loads into t3.
  const uint64_t mtime_addr = profile.machine.map.clint_base + Clint::kMtimeOffset;
  ASSERT_TRUE(machine.RunUntil(
      [&] { return system.monitor->in_firmware_world(0) && hart.gpr(t0) == mtime_addr; },
      kBudget));
  // The read the emulation makes, on its own: exactly the synced time. (Through the
  // trap, the monitor's entry has already synced the counter before the load is
  // emulated, so only the bounds below can be checked there.)
  PushClockAhead(machine);
  uint64_t direct = 0;
  ASSERT_TRUE(system.monitor->vclint().Read(Clint::kMtimeOffset, 8, &direct));
  EXPECT_EQ(direct, SyncedNow(machine));
  const uint64_t stored = PushClockAhead(machine);
  const uint64_t before = SyncedNow(machine);
  const uint64_t emulations = system.monitor->stats().mmio_emulations;
  machine.StepAll();
  ASSERT_EQ(system.monitor->stats().mmio_emulations, emulations + 1);
  EXPECT_GE(hart.gpr(t3), before) << "the stored mtime was " << stored;
  EXPECT_LE(hart.gpr(t3), SyncedNow(machine));
}

TEST(MonitorTimeTest, ReprogramPhysTimerNowIsSynced) {
  // The OS sets a deadline that the synced time has reached but the stored counter
  // has not. The fast path's set_timer must latch it as a pending supervisor timer
  // interrupt at once, not arm the physical comparator for a time already past.
  const PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  System system = BootSystem(profile, DeployMode::kMiralis,
                             KernelWith(profile, [](KernelBuilder& kb) {
                               Assembler& a = kb.assembler();
                               a.Li(a7, SbiExt::kTime);
                               a.Li(a6, SbiFunc::kSetTimer);
                               a.Bind("t_set_timer");
                               a.Ecall();  // a0, the deadline, is set by the test
                             }));
  Machine& machine = *system.machine;
  Hart& hart = machine.hart(0);
  const uint64_t ecall_pc = system.kernel.Symbol("t_set_timer");
  ASSERT_TRUE(machine.RunUntil([&] { return hart.pc() == ecall_pc; }, kBudget));
  const uint64_t stored = PushClockAhead(machine);
  const uint64_t deadline = stored + kAheadTicks / 2;
  hart.set_gpr(a0, deadline);
  const uint64_t hits = system.monitor->stats().fastpath_hits;
  machine.StepAll();
  ASSERT_EQ(system.monitor->stats().fastpath_hits, hits + 1);
  constexpr uint64_t kStip = InterruptMask(InterruptCause::kSupervisorTimer);
  EXPECT_NE(hart.csrs().mip_sw() & kStip, 0u)
      << "deadline " << deadline << " not latched; stored mtime " << stored
      << ", synced " << SyncedNow(machine);
  EXPECT_NE(machine.clint().mtimecmp(0), deadline);
}

// ---------------------------------------------------------------------------------
// Batched equals stepped. A monitored single hart batches to its next comparator
// edge (Machine::RunBarriers' horizon). Its outputs must match per-instruction
// stepping, where every instruction is its own batch: the horizon must change
// nothing the guest, the monitor or the outside world can see.

struct EndState {
  uint64_t pc = 0;
  std::vector<uint64_t> gprs;
  uint64_t mcycle = 0;
  uint64_t minstret = 0;
  std::string uart;
  MonitorStats stats;
  uint64_t ram_hash = 0;
  uint64_t timer_ticks = 0;  // the kernel's count of supervisor timer interrupts
};

// FNV-1a over RAM's 64-bit words: a byte-wise pass over 128 MiB takes ~0.3 s.
uint64_t RamHash(Machine& machine) {
  const Ram& ram = machine.bus().ram();
  uint64_t hash = kFnv1aBasis;
  for (uint64_t offset = 0; offset + 8 <= ram.size(); offset += 8) {
    uint64_t word = 0;
    std::memcpy(&word, ram.data() + offset, sizeof word);
    hash = (hash ^ word) * 0x100000001b3ull;
  }
  return hash;
}

std::string Describe(const MonitorStats& s) {
  std::string text = "os_traps " + std::to_string(s.os_traps) + ", firmware_traps " +
                     std::to_string(s.firmware_traps) + ", emulated_instrs " +
                     std::to_string(s.emulated_instrs) + ", world_switches " +
                     std::to_string(s.world_switches) + ", injected_interrupts " +
                     std::to_string(s.injected_interrupts) + ", mmio_emulations " +
                     std::to_string(s.mmio_emulations) + ", mprv_emulations " +
                     std::to_string(s.mprv_emulations) + ", fastpath_hits " +
                     std::to_string(s.fastpath_hits) + ", policy_denials " +
                     std::to_string(s.policy_denials) + ", by cause";
  for (const uint64_t count : s.os_traps_by_cause) {
    text += " " + std::to_string(count);
  }
  return text;
}

EndState RunToEnd(const PlatformProfile& base, DeployMode mode, const Image& kernel,
                  uint64_t batch_cap) {
  PlatformProfile profile = base;
  profile.machine.tuning.max_batch_instructions = batch_cap;
  System system = BootSystem(profile, mode, kernel);
  Machine& machine = *system.machine;
  EXPECT_TRUE(machine.RunUntilFinished(kBudget));
  EXPECT_EQ(machine.finisher().exit_code(), 0u);
  const Hart& hart = machine.hart(0);
  EndState end;
  end.pc = hart.pc();
  for (unsigned i = 0; i < 32; ++i) {
    end.gprs.push_back(hart.gpr(i));
  }
  end.mcycle = hart.cycles();
  end.minstret = hart.instret();
  end.uart = machine.uart().output();
  end.stats = system.monitor->stats();
  end.ram_hash = RamHash(machine);
  end.timer_ticks = system.ReadResult(KernelSlots::kTimerTicks);
  return end;
}

// Runs `kernel` under the monitor with and without offload, stepped and batched, and
// returns the batched runs' end states.
std::vector<EndState> ExpectBatchedEqualsStepped(const PlatformProfile& profile,
                                                 const Image& kernel) {
  std::vector<EndState> ends;
  for (const DeployMode mode : {DeployMode::kMiralis, DeployMode::kMiralisNoOffload}) {
    SCOPED_TRACE(DeployModeName(mode));
    const EndState stepped = RunToEnd(profile, mode, kernel, 1);
    const EndState batched =
        RunToEnd(profile, mode, kernel, profile.machine.tuning.max_batch_instructions);
    EXPECT_EQ(batched.pc, stepped.pc);
    EXPECT_EQ(batched.gprs, stepped.gprs);
    EXPECT_EQ(batched.mcycle, stepped.mcycle);
    EXPECT_EQ(batched.minstret, stepped.minstret);
    EXPECT_EQ(batched.uart, stepped.uart);
    EXPECT_TRUE(batched.stats == stepped.stats)
        << "batched: " << Describe(batched.stats) << "\nstepped: " << Describe(stepped.stats);
    EXPECT_EQ(batched.ram_hash, stepped.ram_hash);
    ends.push_back(batched);
  }
  return ends;
}

TEST(MonitorBatchTest, BatchedEqualsSteppedOnRedis) {
  const PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  WorkloadProfile redis = RedisProfile();
  redis.requests = 24;
  ExpectBatchedEqualsStepped(profile, BuildWorkloadKernel(profile, redis));
}

TEST(MonitorBatchTest, BatchedEqualsSteppedOnTimeReadsAndTimerSets) {
  // Each iteration computes, reads time twice into a running sum and sets a timer a
  // few ticks ahead, so the next iteration's compute runs past the deadline: timer
  // edges land inside compute, where a batch must stop to take them, and time reads
  // follow long batches. The kernel's handler re-arms its own periodic tick.
  const PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  const Image kernel = KernelWith(
      profile,
      [](KernelBuilder& kb) {
        Assembler& a = kb.assembler();
        a.Li(s4, 200);
        a.Li(s5, 0);
        a.Bind("t_loop");
        kb.EmitComputeLoop(40, 16);
        kb.EmitTimeRead();
        a.Add(s5, s5, a0);
        kb.EmitTimeRead();
        a.Add(s5, s5, a0);
        kb.EmitSetTimerRelative(3);
        a.Addi(s4, s4, -1);
        a.Bnez(s4, "t_loop");
        a.Mv(a0, s5);
        kb.EmitStoreResult(KernelSlots::kScratch);
      },
      /*timer_interval=*/50);
  for (const EndState& end : ExpectBatchedEqualsStepped(profile, kernel)) {
    EXPECT_GE(end.timer_ticks, 100u);
  }
}

}  // namespace
}  // namespace vfm
