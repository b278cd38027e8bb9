// Keystone-policy demo (paper §5.3): create an enclave, run it to completion across
// timer preemptions, and show its measurement. The enclave is protected by a policy
// PMP that takes priority over the virtual PMPs — neither the OS nor the (virtualized,
// untrusted) firmware can read its memory.

#include <cstdio>

#include "src/common/log.h"
#include "src/core/policies/keystone.h"
#include "src/isa/sbi.h"
#include "src/kernel/kernel.h"
#include "src/platform/platform.h"
#include "src/workloads/workloads.h"

int main() {
  using namespace vfm;
  SetLogLevel(LogLevel::kInfo);

  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);

  // The enclave payload: a self-contained U-mode image exiting via the Keystone ABI.
  Rv8Kernel payload_kernel{"demo", 20'000, 16, 1, 4};
  const Image payload = BuildRv8Payload(profile.enclave_base, payload_kernel);

  // The host kernel: create -> run -> resume-until-done -> report.
  KernelConfig kernel_config;
  kernel_config.base = profile.kernel_base;
  kernel_config.timer_interval = 3000;  // ticks preempt the enclave mid-run
  KernelBuilder kb(kernel_config);
  Assembler& a = kb.assembler();
  kb.EmitSetTimerRelative(3000);
  kb.EmitPrint("host: creating enclave\n");
  a.Li(a0, profile.enclave_base);
  a.Li(a1, profile.enclave_size);
  a.Li(a2, payload.entry);
  a.Li(a7, kKeystoneSbiExt);
  a.Li(a6, KeystoneFunc::kCreateEnclave);
  a.Ecall();
  a.Mv(s10, a1);
  kb.EmitPrint("host: running enclave\n");
  a.Mv(a0, s10);
  a.Li(a7, kKeystoneSbiExt);
  a.Li(a6, KeystoneFunc::kRunEnclave);
  a.Ecall();
  a.Bind("resume_loop");
  a.Li(t0, DomainExit::kDone);
  a.Beq(a1, t0, "enclave_done");
  a.Mv(a0, s10);
  a.Li(a7, kKeystoneSbiExt);
  a.Li(a6, KeystoneFunc::kResumeEnclave);
  a.Ecall();
  a.J("resume_loop");
  a.Bind("enclave_done");
  kb.EmitStoreResult(KernelSlots::kScratch);  // the enclave's exit value
  kb.EmitPrint("host: enclave finished\n");
  kb.EmitFinish(/*pass=*/true);

  KeystonePolicy policy;
  System system = BootSystem(profile, DeployMode::kMiralis, kb.Finish(),
                             FirmwareKind::kOpenSbiSim, &policy);
  system.machine->uart().set_echo(true);
  if (!system.machine->LoadImage(payload.base, payload.bytes)) {
    std::fprintf(stderr, "payload load failed\n");
    return 1;
  }
  if (!system.machine->RunUntilFinished(100'000'000) ||
      system.machine->finisher().exit_code() != 0) {
    std::fprintf(stderr, "enclave demo failed\n");
    return 1;
  }

  std::printf("\n--- keystone demo summary ----------------------------------\n");
  std::printf("enclave measurement (SHA-256): %s\n", policy.measurement().c_str());
  std::printf("enclave exit value:            0x%llx\n",
              static_cast<unsigned long long>(system.ReadResult(KernelSlots::kScratch)));
  std::printf("timer ticks during the run:    %llu (each preempted + resumed the enclave)\n",
              static_cast<unsigned long long>(system.ReadResult(KernelSlots::kTimerTicks)));
  std::printf("threat model: the OS *and* the vendor firmware are untrusted (§5.3).\n");
  return 0;
}
