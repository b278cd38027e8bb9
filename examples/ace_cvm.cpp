// ACE-policy demo (paper §5.4, §8.4): run a confidential VM in VS-mode on the
// H-extension platform (the QEMU analog the paper uses for ACE), with the CVM's
// memory protected from the host hypervisor *and* the deprivileged vendor firmware.

#include <cstdio>

#include "src/asm/assembler.h"
#include "src/common/log.h"
#include "src/core/policies/ace.h"
#include "src/isa/sbi.h"
#include "src/kernel/kernel.h"
#include "src/platform/platform.h"

namespace {

using namespace vfm;

// The confidential VM: a VS-mode guest that computes over its private memory, yields
// once (scheduling round trip), then exits with a check value via the ACE hypercall.
Image BuildCvmPayload(uint64_t base) {
  Assembler a(base);
  a.Bind("_start");
  a.La(s1, "cvm_data");
  a.Li(s2, 50'000);
  a.Li(s3, 0xACE);
  a.Bind("cvm_loop");
  a.Addi(s3, s3, 7);
  a.Xori(s3, s3, 0x3C);
  a.Sd(s3, s1, 0);
  a.Ld(t0, s1, 0);
  a.Add(s3, s3, t0);
  a.Addi(s2, s2, -1);
  a.Bnez(s2, "cvm_loop");
  // Yield to the host once mid-run (the CVM scheduling path).
  a.Li(a6, AceFunc::kCvmYield);
  a.Li(a7, kAceSbiExt);
  a.Ecall();
  // Exit with the check value.
  a.Mv(a0, s3);
  a.Li(a6, AceFunc::kCvmExit);
  a.Li(a7, kAceSbiExt);
  a.Ecall();
  a.Bind("cvm_hang");
  a.J("cvm_hang");
  a.Align(8);
  a.Bind("cvm_data");
  a.Zero(64);
  Result<Image> image = a.Finish();
  VFM_CHECK(image.ok());
  return std::move(image).value();
}

}  // namespace

int main() {
  SetLogLevel(LogLevel::kInfo);

  // The H-extension platform (paper: "we reproduce the ACE example on QEMU").
  PlatformProfile profile = MakePlatform(PlatformKind::kQemuSim, 1, false);
  const Image payload = BuildCvmPayload(profile.enclave_base);

  // The host hypervisor kernel: create the CVM, run it, re-run across yields and
  // preemptions until it exits.
  KernelConfig kernel_config;
  kernel_config.base = profile.kernel_base;
  kernel_config.timer_interval = 4000;
  KernelBuilder kb(kernel_config);
  Assembler& a = kb.assembler();
  kb.EmitSetTimerRelative(4000);
  kb.EmitPrint("host: creating confidential VM\n");
  a.Li(a0, profile.enclave_base);
  a.Li(a1, profile.enclave_size);
  a.Li(a2, payload.entry);
  a.Li(a7, kAceSbiExt);
  a.Li(a6, AceFunc::kCreateCvm);
  a.Ecall();
  a.Mv(s10, a1);  // CVM id
  a.Bind("cvm_run");
  a.Mv(a0, s10);
  a.Li(a7, kAceSbiExt);
  a.Li(a6, AceFunc::kRunCvm);
  a.Ecall();
  a.Li(t0, DomainExit::kDone);
  a.Bne(a1, t0, "cvm_run");  // interrupted or yielded: schedule it again
  kb.EmitStoreResult(KernelSlots::kScratch);
  kb.EmitPrint("host: CVM exited\n");
  kb.EmitFinish(/*pass=*/true);

  AcePolicy policy;
  System system = BootSystem(profile, DeployMode::kMiralis, kb.Finish(),
                             FirmwareKind::kOpenSbiSim, &policy);
  system.machine->uart().set_echo(true);
  if (!system.machine->LoadImage(payload.base, payload.bytes)) {
    std::fprintf(stderr, "CVM payload load failed\n");
    return 1;
  }
  if (!system.machine->RunUntilFinished(100'000'000) ||
      system.machine->finisher().exit_code() != 0) {
    std::fprintf(stderr, "ACE demo failed\n");
    return 1;
  }

  std::printf("\n--- ACE demo summary ---------------------------------------\n");
  std::printf("CVM measurement (SHA-256): %s\n", policy.measurement().c_str());
  std::printf("CVM exit value:            0x%llx\n",
              static_cast<unsigned long long>(system.ReadResult(KernelSlots::kScratch)));
  std::printf("threat model: host hypervisor AND vendor firmware are excluded from the "
              "CVM's TCB (§5.4).\n");
  return 0;
}
