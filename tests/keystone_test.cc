// Tests for the Keystone policy (paper §5.3): enclave lifecycle, isolation from the
// OS, preemption/resume, measurement, and lifecycle error paths.

#include <gtest/gtest.h>

#include "src/core/policies/keystone.h"
#include "src/isa/sbi.h"
#include "src/kernel/kernel.h"
#include "src/platform/platform.h"
#include "src/workloads/workloads.h"

namespace vfm {
namespace {

constexpr uint64_t kBudget = 60'000'000;

struct EnclaveSystem {
  System system;
  std::unique_ptr<KeystonePolicy> policy;
};

// Builds the host kernel: create -> run -> resume* -> store exit value -> finish.
Image HostKernel(const PlatformProfile& profile, uint64_t payload_entry,
                 uint64_t timer_interval) {
  KernelConfig config;
  config.base = profile.kernel_base;
  config.timer_interval = timer_interval;
  KernelBuilder kb(config);
  Assembler& a = kb.assembler();
  if (timer_interval != 0) {
    kb.EmitSetTimerRelative(timer_interval);
  }
  a.Li(a0, profile.enclave_base);
  a.Li(a1, profile.enclave_size);
  a.Li(a2, payload_entry);
  a.Li(a7, kKeystoneSbiExt);
  a.Li(a6, KeystoneFunc::kCreateEnclave);
  a.Ecall();
  a.Mv(s10, a1);
  a.Mv(a0, a0);
  kb.EmitStoreResult(KernelSlots::kScratch + 2);  // create status
  a.Mv(a0, s10);
  a.Li(a7, kKeystoneSbiExt);
  a.Li(a6, KeystoneFunc::kRunEnclave);
  a.Ecall();
  a.Bind("kt_loop");
  a.Li(t0, DomainExit::kDone);
  a.Beq(a1, t0, "kt_done");
  kb.EmitAtomicIncrement(KernelSlots::kScratch + 3);  // resumes performed
  a.Mv(a0, s10);
  a.Li(a7, kKeystoneSbiExt);
  a.Li(a6, KeystoneFunc::kResumeEnclave);
  a.Ecall();
  a.J("kt_loop");
  a.Bind("kt_done");
  kb.EmitStoreResult(KernelSlots::kScratch);  // exit value
  kb.EmitFinish(/*pass=*/true);
  return kb.Finish();
}

EnclaveSystem BootEnclaveSystem(const Rv8Kernel& kernel, uint64_t timer_interval) {
  EnclaveSystem es;
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  const Image payload = BuildRv8Payload(profile.enclave_base, kernel);
  es.policy = std::make_unique<KeystonePolicy>();
  es.system = BootSystem(profile, DeployMode::kMiralis,
                         HostKernel(profile, payload.entry, timer_interval),
                         FirmwareKind::kOpenSbiSim, es.policy.get());
  EXPECT_TRUE(es.system.machine->LoadImage(payload.base, payload.bytes));
  return es;
}

TEST(KeystoneTest, EnclaveRunsToCompletion) {
  EnclaveSystem es = BootEnclaveSystem({"t", 2000, 8, 0, 2}, /*timer_interval=*/0);
  ASSERT_TRUE(es.system.machine->RunUntilFinished(kBudget));
  EXPECT_EQ(es.system.machine->finisher().exit_code(), 0u);
  EXPECT_EQ(es.system.ReadResult(KernelSlots::kScratch + 2), 0u);  // create ok
  EXPECT_NE(es.system.ReadResult(KernelSlots::kScratch), 0u);      // a check value
  EXPECT_FALSE(es.policy->live());  // destroyed on exit
}

TEST(KeystoneTest, ExitValueMatchesNativeComputation) {
  const Rv8Kernel kernel{"t", 3000, 12, 1, 2};
  EnclaveSystem es = BootEnclaveSystem(kernel, 0);
  ASSERT_TRUE(es.system.machine->RunUntilFinished(kBudget));
  const uint64_t enclave_value = es.system.ReadResult(KernelSlots::kScratch);

  // Re-run the identical payload outside an enclave (bare M-mode machine).
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  const Image payload = BuildRv8Payload(profile.enclave_base, kernel);
  Machine machine(profile.machine);
  ASSERT_TRUE(machine.LoadImage(payload.base, payload.bytes));
  machine.hart(0).set_pc(payload.entry);
  machine.hart(0).set_priv(PrivMode::kMachine);
  // Runs until its exit ecall traps (mtvec = 0 -> pc 0 -> fetch stops the budget).
  machine.RunUntil([&] { return machine.hart(0).gpr(17) == kKeystoneSbiExt &&
                                machine.hart(0).pc() < payload.base; },
                   10'000'000);
  EXPECT_EQ(machine.hart(0).gpr(10), enclave_value);
}

TEST(KeystoneTest, PreemptionAndResume) {
  EnclaveSystem es = BootEnclaveSystem({"t", 30'000, 16, 0, 2}, /*timer_interval=*/2000);
  ASSERT_TRUE(es.system.machine->RunUntilFinished(kBudget));
  EXPECT_EQ(es.system.machine->finisher().exit_code(), 0u);
  // The tick preempted the enclave at least once; every preemption costs a resume.
  EXPECT_GE(es.system.ReadResult(KernelSlots::kScratch + 3), 1u);
  EXPECT_NE(es.system.ReadResult(KernelSlots::kScratch), 0u);
}

TEST(KeystoneTest, EnclaveMemoryHiddenFromOs) {
  // While an idle (created but destroyed... here: during creation lifetime) enclave
  // exists, the policy slot closes its region to S-mode.
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  const Image payload = BuildRv8Payload(profile.enclave_base, {"t", 1000, 8, 0, 0});
  KernelConfig config;
  config.base = profile.kernel_base;
  KernelBuilder kb(config);
  Assembler& a = kb.assembler();
  a.Li(a0, profile.enclave_base);
  a.Li(a1, profile.enclave_size);
  a.Li(a2, payload.entry);
  a.Li(a7, kKeystoneSbiExt);
  a.Li(a6, KeystoneFunc::kCreateEnclave);
  a.Ecall();
  // Now try to read enclave memory from S-mode: must fault (delegated -> k_fatal).
  a.Li(t0, profile.enclave_base);
  a.Ld(t1, t0, 0);
  kb.EmitFinish(/*pass=*/true);  // unreachable if protection works
  KeystonePolicy policy;
  System system = BootSystem(profile, DeployMode::kMiralis, kb.Finish(),
                             FirmwareKind::kOpenSbiSim, &policy);
  ASSERT_TRUE(system.machine->LoadImage(payload.base, payload.bytes));
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  EXPECT_NE(system.machine->finisher().exit_code(), 0u);
}

TEST(KeystoneTest, MeasurementRecordedAtCreation) {
  EnclaveSystem es = BootEnclaveSystem({"t", 1000, 8, 0, 0}, 0);
  ASSERT_TRUE(es.system.machine->RunUntilFinished(kBudget));
  EXPECT_EQ(es.policy->measurement().size(), 64u);
}

TEST(KeystoneTest, InvalidCreateParametersRejected) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  KernelConfig config;
  config.base = profile.kernel_base;
  KernelBuilder kb(config);
  Assembler& a = kb.assembler();
  // Unaligned base.
  a.Li(a0, profile.enclave_base + 0x100);
  a.Li(a1, profile.enclave_size);
  a.Li(a2, profile.enclave_base + 0x100);
  a.Li(a7, kKeystoneSbiExt);
  a.Li(a6, KeystoneFunc::kCreateEnclave);
  a.Ecall();
  kb.EmitStoreResult(KernelSlots::kScratch);  // error code
  // Entry outside the region.
  a.Li(a0, profile.enclave_base);
  a.Li(a1, profile.enclave_size);
  a.Li(a2, profile.kernel_base);
  a.Li(a7, kKeystoneSbiExt);
  a.Li(a6, KeystoneFunc::kCreateEnclave);
  a.Ecall();
  kb.EmitStoreResult(KernelSlots::kScratch + 1);
  // Run of a nonexistent enclave id.
  a.Li(a0, 5);
  a.Li(a7, kKeystoneSbiExt);
  a.Li(a6, KeystoneFunc::kRunEnclave);
  a.Ecall();
  kb.EmitStoreResult(KernelSlots::kScratch + 2);
  kb.EmitFinish(/*pass=*/true);
  KeystonePolicy policy;
  System system = BootSystem(profile, DeployMode::kMiralis, kb.Finish(),
                             FirmwareKind::kOpenSbiSim, &policy);
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  EXPECT_EQ(system.machine->finisher().exit_code(), 0u);
  EXPECT_EQ(static_cast<int64_t>(system.ReadResult(KernelSlots::kScratch)),
            SbiError::kInvalidParam);
  EXPECT_EQ(static_cast<int64_t>(system.ReadResult(KernelSlots::kScratch + 1)),
            SbiError::kInvalidParam);
  EXPECT_EQ(static_cast<int64_t>(system.ReadResult(KernelSlots::kScratch + 2)),
            SbiError::kInvalidParam);
}

}  // namespace
}  // namespace vfm
