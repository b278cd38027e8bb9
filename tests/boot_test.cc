// End-to-end boot tests: the full Figure-9 flow on both platform profiles, in all
// three deployment modes (native / monitor / monitor-no-offload), with both firmware
// implementations. These are the paper's Q1 experiments in test form (§8.2).

#include <gtest/gtest.h>

#include "src/core/policies/sandbox.h"
#include "src/kernel/kernel.h"
#include "src/platform/platform.h"

namespace vfm {
namespace {

constexpr uint64_t kRunBudget = 30'000'000;

Image HelloKernel(const PlatformProfile& profile) {
  KernelConfig config;
  config.base = profile.kernel_base;
  config.hart_count = 1;
  KernelBuilder kb(config);
  kb.EmitPrint("hello from minios\n");
  kb.EmitTimeRead();
  kb.EmitStoreResult(KernelSlots::kScratch);
  kb.EmitFinish(/*pass=*/true);
  return kb.Finish();
}

class BootMatrixTest : public ::testing::TestWithParam<std::tuple<PlatformKind, DeployMode>> {};

TEST_P(BootMatrixTest, HelloKernelBootsAndFinishes) {
  const auto [kind, mode] = GetParam();
  PlatformProfile profile = MakePlatform(kind, /*hart_count=*/1, /*with_blockdev=*/false);
  System system = BootSystem(profile, mode, HelloKernel(profile));

  ASSERT_TRUE(system.machine->RunUntilFinished(kRunBudget));
  EXPECT_EQ(system.machine->finisher().exit_code(), 0u);
  EXPECT_NE(system.machine->uart().output().find("hello from minios"), std::string::npos);
  // The time CSR read trapped and was emulated with a plausible (nonzero) timestamp.
  EXPECT_GT(system.ReadResult(KernelSlots::kScratch), 0u);
  if (mode != DeployMode::kNative) {
    EXPECT_GT(system.monitor->stats().os_traps, 0u);
    EXPECT_GT(system.monitor->stats().emulated_instrs, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPlatformsAndModes, BootMatrixTest,
    ::testing::Combine(::testing::Values(PlatformKind::kVf2Sim, PlatformKind::kP550Sim),
                       ::testing::Values(DeployMode::kNative, DeployMode::kMiralis,
                                         DeployMode::kMiralisNoOffload)));

TEST(BootTest, MiniSbiFirmwareBootsVirtualized) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  System system = BootSystem(profile, DeployMode::kMiralis, HelloKernel(profile),
                             FirmwareKind::kMiniSbi);
  ASSERT_TRUE(system.machine->RunUntilFinished(kRunBudget));
  EXPECT_EQ(system.machine->finisher().exit_code(), 0u);
  EXPECT_NE(system.machine->uart().output().find("minisbi"), std::string::npos);
  EXPECT_NE(system.machine->uart().output().find("hello from minios"), std::string::npos);
}

TEST(BootTest, TimerTicksAreDelivered) {
  for (DeployMode mode :
       {DeployMode::kNative, DeployMode::kMiralis, DeployMode::kMiralisNoOffload}) {
    SCOPED_TRACE(DeployModeName(mode));
    PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
    KernelConfig config;
    config.base = profile.kernel_base;
    config.timer_interval = 200;  // re-arm every 200 timebase ticks
    KernelBuilder kb(config);
    kb.EmitSetTimerRelative(100);
    kb.EmitWaitSlotAtLeast(KernelSlots::kTimerTicks, 20);
    kb.EmitFinish(/*pass=*/true);
    System system = BootSystem(profile, mode, kb.Finish());
    ASSERT_TRUE(system.machine->RunUntilFinished(kRunBudget));
    EXPECT_EQ(system.machine->finisher().exit_code(), 0u);
    EXPECT_GE(system.ReadResult(KernelSlots::kTimerTicks), 20u);
  }
}

TEST(BootTest, MultiHartBootAndIpi) {
  for (DeployMode mode : {DeployMode::kNative, DeployMode::kMiralis}) {
    SCOPED_TRACE(DeployModeName(mode));
    PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 4, false);
    KernelConfig config;
    config.base = profile.kernel_base;
    config.hart_count = 4;
    KernelBuilder kb(config);
    kb.EmitStartSecondaries();
    kb.EmitSendIpi(0b1110);  // IPI all secondaries
    kb.EmitWaitSlotAtLeast(KernelSlots::kIpisTaken, 3);
    kb.EmitRemoteFence(0b1110);
    kb.EmitFinish(/*pass=*/true);
    kb.DefineSecondaryMain();
    kb.EmitSecondaryPark();
    System system = BootSystem(profile, mode, kb.Finish());
    ASSERT_TRUE(system.machine->RunUntilFinished(kRunBudget));
    EXPECT_EQ(system.machine->finisher().exit_code(), 0u);
    EXPECT_GE(system.ReadResult(KernelSlots::kHartsOnline), 3u);
    EXPECT_GE(system.ReadResult(KernelSlots::kIpisTaken), 3u);
  }
}

TEST(BootTest, MisalignedAccessEmulated) {
  for (DeployMode mode :
       {DeployMode::kNative, DeployMode::kMiralis, DeployMode::kMiralisNoOffload}) {
    SCOPED_TRACE(DeployModeName(mode));
    PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
    KernelConfig config;
    config.base = profile.kernel_base;
    config.enable_paging = true;  // exercise MPRV emulation through the page tables
    KernelBuilder kb(config);
    kb.EmitMisalignedLoad();
    kb.EmitFinish(/*pass=*/true);
    System system = BootSystem(profile, mode, kb.Finish());
    ASSERT_TRUE(system.machine->RunUntilFinished(kRunBudget));
    EXPECT_EQ(system.machine->finisher().exit_code(), 0u);
  }
}

TEST(BootTest, MisalignedLoadsAndStoresAgreeAcrossModes) {
  // Three emulators of one misaligned access: the native firmware's MPRV byte loop,
  // the monitor's fast path (offload), and the firmware's loop with every MPRV byte
  // emulated by the monitor (no offload). Each access size and extension runs once,
  // stores included, and one load and one store straddle a 4 KiB page boundary. All
  // three must leave the same registers and the same bytes.
  constexpr unsigned kAccesses = 9;
  constexpr uint64_t kLoaded[] = {
      0xFFFF'FFFF'FFFF'A5C3,  // lh  page-9
      0x0000'0000'0000'A5C3,  // lhu page-9
      0xFFFF'FFFF'FEDC'BA98,  // lw  page-15
      0x0000'0000'FEDC'BA98,  // lwu page-15
      0x0123'4567'89AB'CDEF,  // ld  page-3, crosses the page
      0xFFFF'FFFF'FFFF'89AB,  // lh  page-1, crosses the page
  };
  constexpr uint8_t kBytes[32] = {
      0x00, 0x98, 0xBA, 0xDC, 0xFE, 0x00, 0x00, 0xC3,  // page-16 ..
      0xA5, 0x00, 0x00, 0x00, 0x00, 0xEF, 0xCD, 0xAB,  // page-8 ..
      0x89, 0x67, 0x45, 0x23, 0x01, 0x00, 0x00, 0x00,  // page ..
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // page+8 ..
  };
  for (DeployMode mode :
       {DeployMode::kNative, DeployMode::kMiralis, DeployMode::kMiralisNoOffload}) {
    SCOPED_TRACE(DeployModeName(mode));
    PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
    KernelConfig config;
    config.base = profile.kernel_base;
    config.enable_paging = true;  // every emulator translates through the page tables
    KernelBuilder kb(config);
    Assembler& a = kb.assembler();
    // A zeroed buffer of 16 bytes either side of a page boundary, jumped over.
    a.J("mis_code");
    a.Zero(16);
    a.Align(4096);
    a.Bind("mis_page");
    a.Zero(16);
    a.Bind("mis_code");
    a.La(s1, "mis_page");
    a.Addi(s1, s1, -16);
    a.Li(t1, 0x0123'4567'89AB'CDEF);
    a.Sd(t1, s1, 13);
    a.Li(t1, 0xFEDC'BA98);
    a.Sw(t1, s1, 1);
    a.Li(t1, 0xA5C3);
    a.Sh(t1, s1, 7);
    a.Lh(s2, s1, 7);
    a.Lhu(s3, s1, 7);
    a.Lw(s4, s1, 1);
    a.Lwu(s5, s1, 1);
    a.Ld(s6, s1, 13);
    a.Lh(s7, s1, 15);
    a.La(t0, "k_results");
    const Reg loaded[] = {s2, s3, s4, s5, s6, s7};
    for (unsigned i = 0; i < 6; ++i) {
      a.Sd(loaded[i], t0, static_cast<int32_t>(8 * (KernelSlots::kScratch + i)));
    }
    kb.EmitFinish(/*pass=*/true);
    const Image kernel = kb.Finish();
    System system = BootSystem(profile, mode, kernel);
    ASSERT_TRUE(system.machine->RunUntilFinished(kRunBudget));
    EXPECT_EQ(system.machine->finisher().exit_code(), 0u);
    for (unsigned i = 0; i < 6; ++i) {
      EXPECT_EQ(system.ReadResult(KernelSlots::kScratch + i), kLoaded[i]) << "load " << i;
    }
    uint8_t bytes[32] = {};
    ASSERT_TRUE(system.machine->bus().ReadBytes(kernel.Symbol("mis_page") - 16, bytes, 32));
    for (unsigned i = 0; i < 32; ++i) {
      EXPECT_EQ(bytes[i], kBytes[i]) << "page" << static_cast<int>(i) - 16;
    }
    if (mode != DeployMode::kNative) {
      const MonitorStats& stats = system.monitor->stats();
      EXPECT_EQ(stats.os_traps_by_cause[static_cast<unsigned>(OsTrapCause::kMisaligned)],
                kAccesses);
      // Offload keeps the firmware out; without it, the firmware's MPRV bytes trap.
      if (mode == DeployMode::kMiralis) {
        EXPECT_EQ(stats.mprv_emulations, 0u);
      } else {
        EXPECT_GT(stats.mprv_emulations, 0u);
      }
    }
  }
}

TEST(BootTest, Rva23PlatformUsesSstcWithoutTraps) {
  // On the RVA23 profile, time reads and timer programming never trap: the kernel
  // runs its tick entirely in hardware, and the monitor sees (almost) no OS traps.
  PlatformProfile profile = MakePlatform(PlatformKind::kRva23Sim, 1, false);
  KernelConfig config;
  config.base = profile.kernel_base;
  config.use_sstc = true;
  config.timer_interval = 200;
  KernelBuilder kb(config);
  kb.EmitSetTimerRelative(100);
  kb.EmitWaitSlotAtLeast(KernelSlots::kTimerTicks, 10);
  kb.EmitTimeRead();
  kb.EmitStoreResult(KernelSlots::kScratch);
  kb.EmitFinish(/*pass=*/true);
  System system = BootSystem(profile, DeployMode::kMiralisNoOffload, kb.Finish());
  ASSERT_TRUE(system.machine->RunUntilFinished(kRunBudget));
  EXPECT_EQ(system.machine->finisher().exit_code(), 0u);
  EXPECT_GE(system.ReadResult(KernelSlots::kTimerTicks), 10u);
  EXPECT_GT(system.ReadResult(KernelSlots::kScratch), 0u);
  // No timer-related M-mode traps at all: no world switches beyond the boot mret.
  const auto& causes = system.monitor->stats().os_traps_by_cause;
  EXPECT_EQ(causes[static_cast<unsigned>(OsTrapCause::kTimeRead)], 0u);
  EXPECT_EQ(causes[static_cast<unsigned>(OsTrapCause::kSetTimer)], 0u);
  EXPECT_LE(system.monitor->stats().world_switches, 2u);
}

TEST(BootTest, SandboxPolicyMeasuresOsImage) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  const SandboxConfigForProfile regions = DefaultSandboxRegions(profile);
  SandboxConfig sandbox_config;
  sandbox_config.firmware_base = regions.firmware_base;
  sandbox_config.firmware_size = regions.firmware_size;
  sandbox_config.os_image_base = regions.os_image_base;
  sandbox_config.os_image_size = regions.os_image_size;
  sandbox_config.uart_base = regions.uart_base;
  sandbox_config.uart_size = regions.uart_size;
  SandboxPolicy policy(sandbox_config);

  System system =
      BootSystem(profile, DeployMode::kMiralis, HelloKernel(profile),
                 FirmwareKind::kOpenSbiSim, &policy);
  ASSERT_TRUE(system.machine->RunUntilFinished(kRunBudget));
  EXPECT_EQ(system.machine->finisher().exit_code(), 0u);
  EXPECT_TRUE(policy.locked());
  EXPECT_EQ(policy.os_image_measurement().size(), 64u);  // SHA-256 hex
}

}  // namespace
}  // namespace vfm
