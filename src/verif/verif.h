// The verification harness (paper §6): checks the monitor's virtualization
// subsystems against the independent reference model (src/refmodel) under the
// faithful-emulation criterion (Definition 1), and the physical-PMP configuration
// function against the shared pmpCheck under the faithful-execution criterion
// (Definition 2). The virtual hart it checks is the monitor's own: a VirtContext
// whose CSR file is the CsrFile the simulated harts run, built from VirtualHartIsa.
//
// Where the paper runs the Kani model checker over symbolic inputs, this harness runs
// exhaustive enumeration over the relevant finite bit domains (mstatus stacks,
// interrupt vectors, CSR field lattices) and dense adversarial randomized sweeps over
// the 64-bit value spaces. Each task mirrors a row of the paper's Table 2.

#ifndef SRC_VERIF_VERIF_H_
#define SRC_VERIF_VERIF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/vcpu.h"
#include "src/refmodel/refmodel.h"

namespace vfm {

struct VerifResult {
  std::string task;
  uint64_t cases = 0;
  uint64_t mismatches = 0;
  double seconds = 0;
  std::vector<std::string> examples;  // first few mismatch descriptions

  bool ok() const { return mismatches == 0; }
};

class Verifier {
 public:
  // The virtual platform and the reference configuration must describe the same
  // machine: the virtual hart of the evaluation platforms' default harts
  // (VirtualHartIsa of HartIsaConfig{}: 3 vPMP entries, no time CSR, no Sstc, no H).
  explicit Verifier(uint64_t seed = 0x5EED);

  // -- Faithful emulation (Definition 1). --------------------------------------------
  // The instruction decoder: encoder/decoder round trip plus robustness sweep.
  VerifResult VerifyDecoder();
  // CSR reads: value and legality agreement over all CSRs x privileges x states.
  VerifResult VerifyCsrRead(uint64_t states_per_csr);
  // CSR writes: WARL legalization agreement over all CSRs x adversarial values.
  VerifResult VerifyCsrWrite(uint64_t values_per_csr);
  // mret / sret / wfi: exhaustive over the status-stack bit domain x privileges.
  VerifResult VerifyMret();
  VerifResult VerifySret();
  VerifResult VerifyWfi();
  // Virtual interrupt selection: exhaustive over (mip, mie, mideleg, SIE/MIE, priv).
  VerifResult VerifyVirtualInterrupt();
  // End-to-end: random states x random privileged instructions through the full
  // emulation pipeline vs the reference transition function.
  VerifResult VerifyEndToEnd(uint64_t iterations);

  // -- Faithful execution (Definition 2). --------------------------------------------
  // Memory protection: the physical PMP banks the monitor installs admit exactly the
  // accesses the virtual configuration admits, and never expose monitor memory.
  VerifResult VerifyPmpFaithfulExecution(uint64_t configs, uint64_t probes_per_config);

  // Runs every task with the default budgets, in Table-2 order.
  std::vector<VerifResult> RunAll();

  // A virtual state and the identical reference state.
  struct SyncedState {
    VirtContext vctx;
    RefState ref;
    explicit SyncedState(const HartIsaConfig& isa) : vctx(isa, 0) {}
  };
  // Produces the next randomized state from this verifier's own stream, seeded by
  // its constructor's seed: verifiers built with one seed produce the same states in
  // the same order, whatever else runs in the process.
  SyncedState MakeRandomState();

 private:
  // Compares all architectural state; appends mismatch descriptions.
  uint64_t CompareStates(const VirtContext& vctx, const RefState& ref, const uint64_t* gprs,
                         const char* context, VerifResult* result);

  HartIsaConfig vconfig_;
  RefConfig rconfig_;
  uint64_t seed_;
  Rng state_rng_;  // MakeRandomState's stream
  std::vector<uint16_t> csr_list_;
};

}  // namespace vfm

#endif  // SRC_VERIF_VERIF_H_
