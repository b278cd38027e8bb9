// Tests for the firmware sandbox policy (paper §5.2): lockdown, register scrubbing,
// S-CSR scrubbing, SBI argument allow-listing, measurement, and denial handling.

#include <gtest/gtest.h>

#include "src/asm/assembler.h"
#include "src/core/policies/sandbox.h"
#include "src/isa/sbi.h"
#include "src/kernel/kernel.h"
#include "src/platform/platform.h"

namespace vfm {
namespace {

constexpr uint64_t kBudget = 30'000'000;

SandboxConfig ConfigFor(const PlatformProfile& profile) {
  const SandboxConfigForProfile regions = DefaultSandboxRegions(profile);
  SandboxConfig config;
  config.firmware_base = regions.firmware_base;
  config.firmware_size = regions.firmware_size;
  config.os_image_base = regions.os_image_base;
  config.os_image_size = regions.os_image_size;
  config.uart_base = regions.uart_base;
  config.uart_size = regions.uart_size;
  return config;
}

// Boots `kernel` under the monitor and `policy` with a hand-written firmware image
// in place of the platform's.
System BootWithFirmware(const PlatformProfile& profile, const Image& fw_image,
                        const Image& kernel, SandboxPolicy* policy) {
  System system;
  system.machine = std::make_unique<Machine>(profile.machine);
  system.kernel = kernel;
  system.firmware = fw_image;
  EXPECT_TRUE(system.machine->LoadImage(fw_image.base, fw_image.bytes));
  EXPECT_TRUE(system.machine->LoadImage(kernel.base, kernel.bytes));
  MonitorConfig mconfig;
  mconfig.monitor_base = profile.monitor_base;
  mconfig.monitor_size = profile.monitor_size;
  mconfig.firmware_entry = fw_image.entry;
  system.monitor = std::make_unique<Monitor>(system.machine.get(), mconfig);
  system.monitor->SetPolicy(policy);
  system.monitor->Boot();
  return system;
}

TEST(SandboxTest, SbiArgCountTable) {
  EXPECT_EQ(SbiArgCount(SbiExt::kTime, SbiFunc::kSetTimer), 1u);
  EXPECT_EQ(SbiArgCount(SbiExt::kIpi, SbiFunc::kSendIpi), 2u);
  EXPECT_EQ(SbiArgCount(SbiExt::kRfence, SbiFunc::kRemoteSfenceVma), 4u);
  EXPECT_EQ(SbiArgCount(SbiExt::kHsm, SbiFunc::kHartStart), 3u);
  EXPECT_EQ(SbiArgCount(SbiExt::kBase, SbiFunc::kProbeExtension), 1u);
  EXPECT_EQ(SbiArgCount(SbiExt::kBase, SbiFunc::kGetSpecVersion), 0u);
  EXPECT_EQ(SbiArgCount(SbiExt::kLegacyPutchar, 0), 1u);
  EXPECT_EQ(SbiArgCount(0xDEAD, 0), 0u);  // unknown extensions receive nothing
}

TEST(SandboxTest, MeasurementIsDeterministic) {
  std::string measurements[2];
  for (int round = 0; round < 2; ++round) {
    PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
    KernelConfig config;
    config.base = profile.kernel_base;
    KernelBuilder kb(config);
    kb.EmitFinish(/*pass=*/true);
    SandboxPolicy policy(ConfigFor(profile));
    System system = BootSystem(profile, DeployMode::kMiralis, kb.Finish(),
                               FirmwareKind::kOpenSbiSim, &policy);
    ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
    ASSERT_TRUE(policy.locked());
    measurements[round] = policy.os_image_measurement();
  }
  EXPECT_EQ(measurements[0], measurements[1]);
  EXPECT_EQ(measurements[0].size(), 64u);
}

TEST(SandboxTest, MeasurementChangesWithKernel) {
  std::string measurements[2];
  for (int round = 0; round < 2; ++round) {
    PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
    KernelConfig config;
    config.base = profile.kernel_base;
    KernelBuilder kb(config);
    if (round == 1) {
      kb.EmitComputeLoop(1, 4);  // a different kernel image
    }
    kb.EmitFinish(/*pass=*/true);
    SandboxPolicy policy(ConfigFor(profile));
    System system = BootSystem(profile, DeployMode::kMiralis, kb.Finish(),
                               FirmwareKind::kOpenSbiSim, &policy);
    ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
    measurements[round] = policy.os_image_measurement();
  }
  EXPECT_NE(measurements[0], measurements[1]);
}

TEST(SandboxTest, GprsScrubbedOnNonEcallEntry) {
  // On a re-injected (non-ecall) trap the firmware must see zeroed registers. The
  // misaligned path is handled in-policy, so use a time read with offload disabled:
  // the firmware's illegal-instruction handler runs with scrubbed GPRs and still
  // works (it only touches the trap frame), and the OS registers come back intact.
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  KernelConfig config;
  config.base = profile.kernel_base;
  KernelBuilder kb(config);
  Assembler& a = kb.assembler();
  a.Li(s2, 0xAAAA);
  a.Li(s3, 0xBBBB);
  a.Csrr(a0, kCsrTime);  // re-injected under no-offload
  a.Add(a0, s2, s3);
  kb.EmitStoreResult(KernelSlots::kScratch);
  kb.EmitFinish(/*pass=*/true);
  SandboxPolicy policy(ConfigFor(profile));
  System system = BootSystem(profile, DeployMode::kMiralisNoOffload, kb.Finish(),
                             FirmwareKind::kOpenSbiSim, &policy);
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  EXPECT_EQ(system.machine->finisher().exit_code(), 0u);
  EXPECT_EQ(system.ReadResult(KernelSlots::kScratch), 0xAAAAu + 0xBBBBu);
}

TEST(SandboxTest, FirmwareCannotCorruptSupervisorCsrs) {
  // A firmware that rewrites the (virtual) satp during a trap must have the damage
  // undone by the sandbox's S-CSR restore before the OS resumes.
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);

  // Malicious firmware: normal boot, then its trap handler corrupts satp/sscratch
  // and returns.
  Assembler fw(profile.firmware_base);
  fw.Bind("_start");
  fw.La(t0, "evil");
  fw.Csrw(kCsrMtvec, t0);
  fw.Li(t0, ((uint64_t{1} << 55) >> 3) - 1);
  fw.Csrw(CsrPmpaddr(0), t0);
  fw.Li(t0, 0x1F);
  fw.Csrw(CsrPmpcfg(0), t0);
  fw.Li(t0, 0x222);
  fw.Csrw(kCsrMideleg, t0);
  fw.Li(t0, profile.kernel_base);
  fw.Csrw(kCsrMepc, t0);
  fw.Li(t0, uint64_t{1} << 11);
  fw.Csrs(kCsrMstatus, t0);
  fw.Csrr(a0, kCsrMhartid);
  fw.Li(a1, 0);
  fw.Mret();
  fw.Align(4);
  fw.Bind("evil");
  fw.Li(t0, 0xEEEE);
  fw.Csrw(kCsrSscratch, t0);  // corrupt an OS S-CSR
  fw.Csrr(t0, kCsrMepc);
  fw.Addi(t0, t0, 4);
  fw.Csrw(kCsrMepc, t0);
  fw.Li(a0, 0);
  fw.Li(a1, 0);
  fw.Mret();
  Image fw_image = std::move(fw.Finish()).value();

  KernelConfig config;
  config.base = profile.kernel_base;
  KernelBuilder kb(config);
  Assembler& a = kb.assembler();
  a.Li(t0, 0x1111);
  a.Csrw(kCsrSscratch, t0);
  a.Li(a7, SbiExt::kBase);
  a.Li(a6, 0);
  a.Ecall();  // traps into the evil firmware
  a.Csrr(a0, kCsrSscratch);
  kb.EmitStoreResult(KernelSlots::kScratch);
  kb.EmitFinish(/*pass=*/true);
  Image kernel = kb.Finish();

  SandboxPolicy policy(ConfigFor(profile));
  System system = BootWithFirmware(profile, fw_image, kernel, &policy);
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  EXPECT_EQ(system.machine->finisher().exit_code(), 0u);
  // The corruption was rolled back: the OS still sees its own sscratch.
  EXPECT_EQ(system.ReadResult(KernelSlots::kScratch), 0x1111u);
}

TEST(SandboxTest, CachedFirmwareCodeIsDeniedOsMemoryAfterLockdown) {
  // Before lockdown the firmware may read all memory: at boot it runs a loop that
  // reads the last 32 doublewords of its own range and the 32 after it four times,
  // so the loop is decoded, built into blocks and served by a PMP window. Lockdown
  // engages at the first switch to the OS. When the OS then calls into the firmware,
  // the same loop is built again from its in-range iterations and must fault on its
  // first load past the range, which the sandbox denies: the OS reaches the call
  // (slot kScratch) but never returns from it.
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  Assembler fw(profile.firmware_base);
  fw.Bind("_start");
  fw.La(t0, "trap");
  fw.Csrw(kCsrMtvec, t0);
  fw.Li(t0, ((uint64_t{1} << 55) >> 3) - 1);
  fw.Csrw(CsrPmpaddr(0), t0);
  fw.Li(t0, 0x1F);
  fw.Csrw(CsrPmpcfg(0), t0);
  fw.Li(s2, 4);
  fw.Bind("warm");
  fw.Call("peek");
  fw.Addi(s2, s2, -1);
  fw.Bnez(s2, "warm");
  fw.Li(t0, profile.kernel_base);
  fw.Csrw(kCsrMepc, t0);
  fw.Li(t0, uint64_t{1} << 11);
  fw.Csrs(kCsrMstatus, t0);
  fw.Csrr(a0, kCsrMhartid);
  fw.Li(a1, 0);
  fw.Mret();
  fw.Bind("peek");
  fw.Li(t0, profile.firmware_base + profile.firmware_size - 32 * 8);
  fw.Li(t1, 64);
  fw.Bind("peek_loop");
  fw.Ld(t2, t0, 0);
  fw.Addi(t0, t0, 8);
  fw.Addi(t1, t1, -1);
  fw.Bnez(t1, "peek_loop");
  fw.Ret();
  fw.Align(4);
  fw.Bind("trap");
  fw.Call("peek");
  fw.Csrr(t0, kCsrMepc);
  fw.Addi(t0, t0, 4);
  fw.Csrw(kCsrMepc, t0);
  fw.Li(a0, 0);
  fw.Li(a1, 0);
  fw.Mret();
  Image fw_image = std::move(fw.Finish()).value();

  KernelConfig config;
  config.base = profile.kernel_base;
  KernelBuilder kb(config);
  Assembler& a = kb.assembler();
  a.Li(a0, 1);
  kb.EmitStoreResult(KernelSlots::kScratch);
  a.Li(a7, SbiExt::kBase);
  a.Li(a6, 0);
  a.Ecall();  // the firmware runs its loop out of its range
  a.Li(a0, 2);
  kb.EmitStoreResult(KernelSlots::kScratch);
  kb.EmitFinish(/*pass=*/true);
  Image kernel = kb.Finish();

  SandboxPolicy policy(ConfigFor(profile));
  System system = BootWithFirmware(profile, fw_image, kernel, &policy);
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  EXPECT_TRUE(policy.locked());
  EXPECT_NE(system.machine->finisher().exit_code(), 0u);  // stopped by the policy
  EXPECT_EQ(system.ReadResult(KernelSlots::kScratch), 1u);
  EXPECT_GE(system.monitor->stats().policy_denials, 1u);
}

TEST(SandboxTest, UartPassthroughAllowsConsole) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  KernelConfig config;
  config.base = profile.kernel_base;
  KernelBuilder kb(config);
  kb.EmitPrint("console ok\n");  // sbi putchar -> firmware -> UART passthrough
  kb.EmitFinish(/*pass=*/true);
  SandboxPolicy policy(ConfigFor(profile));
  System system = BootSystem(profile, DeployMode::kMiralis, kb.Finish(),
                             FirmwareKind::kOpenSbiSim, &policy);
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  EXPECT_EQ(system.machine->finisher().exit_code(), 0u);
  EXPECT_NE(system.machine->uart().output().find("console ok"), std::string::npos);
}

TEST(SandboxTest, UartDeniedWhenNotAllowed) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  KernelConfig config;
  config.base = profile.kernel_base;
  KernelBuilder kb(config);
  kb.EmitPrint("x");  // putchar will hit the UART from the firmware: denied
  kb.EmitFinish(/*pass=*/true);
  SandboxConfig sandbox_config = ConfigFor(profile);
  sandbox_config.allow_uart = false;
  SandboxPolicy policy(sandbox_config);
  System system = BootSystem(profile, DeployMode::kMiralis, kb.Finish(),
                             FirmwareKind::kOpenSbiSim, &policy);
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  EXPECT_NE(system.machine->finisher().exit_code(), 0u);  // stopped by the policy
  EXPECT_GE(system.monitor->stats().policy_denials, 1u);
}

TEST(SandboxTest, MisalignedHandledInPolicy) {
  // §5.2: the sandbox implements misaligned emulation itself, so even with offload
  // disabled no world switch is needed for it.
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  KernelConfig config;
  config.base = profile.kernel_base;
  KernelBuilder kb(config);
  kb.EmitMisalignedLoad();
  kb.EmitFinish(/*pass=*/true);
  SandboxPolicy policy(ConfigFor(profile));
  System system = BootSystem(profile, DeployMode::kMiralisNoOffload, kb.Finish(),
                             FirmwareKind::kOpenSbiSim, &policy);
  const uint64_t switches_before_lockdown = 1;  // the boot mret
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  EXPECT_EQ(system.machine->finisher().exit_code(), 0u);
  // Only the boot transition; the misaligned access never reached the firmware.
  EXPECT_LE(system.monitor->stats().world_switches, switches_before_lockdown + 1);
}

}  // namespace
}  // namespace vfm
