// Tests for the ACE policy (paper §5.4): confidential VMs in VS-mode on the
// H-extension platform, protected from host and firmware.

#include <gtest/gtest.h>

#include "src/asm/assembler.h"
#include "src/core/policies/ace.h"
#include "src/isa/sbi.h"
#include "src/kernel/kernel.h"
#include "src/platform/platform.h"

namespace vfm {
namespace {

constexpr uint64_t kBudget = 60'000'000;

Image CvmPayload(uint64_t base, uint64_t iterations, bool with_yield) {
  Assembler a(base);
  a.Bind("_start");
  a.Li(s2, iterations);
  a.Li(s3, 0xACE);
  a.Bind("loop");
  a.Addi(s3, s3, 7);
  a.Xori(s3, s3, 0x3C);
  a.Addi(s2, s2, -1);
  a.Bnez(s2, "loop");
  if (with_yield) {
    a.Li(a6, AceFunc::kCvmYield);
    a.Li(a7, kAceSbiExt);
    a.Ecall();
  }
  a.Mv(a0, s3);
  a.Li(a6, AceFunc::kCvmExit);
  a.Li(a7, kAceSbiExt);
  a.Ecall();
  a.Bind("hang");
  a.J("hang");
  return std::move(a.Finish()).value();
}

Image CvmHostKernel(const PlatformProfile& profile, uint64_t payload_entry) {
  KernelConfig config;
  config.base = profile.kernel_base;
  config.timer_interval = 4000;
  config.finisher_base = profile.machine.map.finisher_base;
  KernelBuilder kb(config);
  Assembler& a = kb.assembler();
  kb.EmitSetTimerRelative(4000);
  a.Li(a0, profile.enclave_base);
  a.Li(a1, profile.enclave_size);
  a.Li(a2, payload_entry);
  a.Li(a7, kAceSbiExt);
  a.Li(a6, AceFunc::kCreateCvm);
  a.Ecall();
  a.Mv(s10, a1);
  a.Bind("run");
  a.Mv(a0, s10);
  a.Li(a7, kAceSbiExt);
  a.Li(a6, AceFunc::kRunCvm);
  a.Ecall();
  a.Li(t0, DomainExit::kDone);
  a.Bne(a1, t0, "run");
  kb.EmitStoreResult(KernelSlots::kScratch);
  kb.EmitFinish(/*pass=*/true);
  return kb.Finish();
}

TEST(AceTest, CvmRunsInVsModeAndExits) {
  PlatformProfile profile = MakePlatform(PlatformKind::kQemuSim, 1, false);
  const Image payload = CvmPayload(profile.enclave_base, 5000, /*with_yield=*/true);
  AcePolicy policy;
  System system = BootSystem(profile, DeployMode::kMiralis,
                             CvmHostKernel(profile, payload.entry),
                             FirmwareKind::kOpenSbiSim, &policy);
  ASSERT_TRUE(system.machine->LoadImage(payload.base, payload.bytes));
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  EXPECT_EQ(system.machine->finisher().exit_code(), 0u);
  EXPECT_NE(system.ReadResult(KernelSlots::kScratch), 0u);
  EXPECT_EQ(policy.measurement().size(), 64u);
  EXPECT_FALSE(policy.running(0));
}

TEST(AceTest, CvmValueDeterministicAcrossRuns) {
  uint64_t values[2];
  for (int round = 0; round < 2; ++round) {
    PlatformProfile profile = MakePlatform(PlatformKind::kQemuSim, 1, false);
    const Image payload = CvmPayload(profile.enclave_base, 2000, round == 1);
    AcePolicy policy;
    System system = BootSystem(profile, DeployMode::kMiralis,
                               CvmHostKernel(profile, payload.entry),
                               FirmwareKind::kOpenSbiSim, &policy);
    ASSERT_TRUE(system.machine->LoadImage(payload.base, payload.bytes));
    ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
    values[round] = system.ReadResult(KernelSlots::kScratch);
  }
  // The yield must not change the computed value, only the scheduling.
  EXPECT_EQ(values[0], values[1]);
}

TEST(AceTest, CvmMemoryHiddenFromHost) {
  PlatformProfile profile = MakePlatform(PlatformKind::kQemuSim, 1, false);
  const Image payload = CvmPayload(profile.enclave_base, 100, false);
  KernelConfig config;
  config.base = profile.kernel_base;
  KernelBuilder kb(config);
  Assembler& a = kb.assembler();
  a.Li(a0, profile.enclave_base);
  a.Li(a1, profile.enclave_size);
  a.Li(a2, payload.entry);
  a.Li(a7, kAceSbiExt);
  a.Li(a6, AceFunc::kCreateCvm);
  a.Ecall();
  // The host hypervisor now tries to peek into the CVM.
  a.Li(t0, profile.enclave_base);
  a.Ld(t1, t0, 0);
  kb.EmitFinish(/*pass=*/true);  // unreachable when the policy PMP holds
  AcePolicy policy;
  System system = BootSystem(profile, DeployMode::kMiralis, kb.Finish(),
                             FirmwareKind::kOpenSbiSim, &policy);
  ASSERT_TRUE(system.machine->LoadImage(payload.base, payload.bytes));
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  EXPECT_NE(system.machine->finisher().exit_code(), 0u);
}

TEST(AceTest, ForeignHypercallTerminatesCvm) {
  // A CVM that calls an SBI extension other than ACE is killed, never leaking its
  // registers to the firmware or the host SBI path.
  PlatformProfile profile = MakePlatform(PlatformKind::kQemuSim, 1, false);
  Assembler a(profile.enclave_base);
  a.Bind("_start");
  a.Li(a7, SbiExt::kTime);  // a foreign hypercall
  a.Li(a6, 0);
  a.Ecall();
  a.Bind("hang");
  a.J("hang");
  const Image payload = std::move(a.Finish()).value();

  AcePolicy policy;
  System system = BootSystem(profile, DeployMode::kMiralis,
                             CvmHostKernel(profile, payload.entry),
                             FirmwareKind::kOpenSbiSim, &policy);
  ASSERT_TRUE(system.machine->LoadImage(payload.base, payload.bytes));
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  EXPECT_EQ(system.machine->finisher().exit_code(), 0u);
  EXPECT_EQ(static_cast<int64_t>(system.ReadResult(KernelSlots::kScratch)),
            SbiError::kFailed);
  EXPECT_FALSE(policy.running(0));
}

TEST(AceTest, RequiresHExtension) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  Machine machine(profile.machine);
  MonitorConfig mconfig;
  mconfig.firmware_entry = profile.firmware_base;
  Monitor monitor(&machine, mconfig);
  AcePolicy policy;
  EXPECT_DEATH(monitor.SetPolicy(&policy), "requires the H extension");
}

}  // namespace
}  // namespace vfm
