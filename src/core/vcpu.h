// The virtual hart context: virtual privilege mode, virtual pc, the virtual CSR file,
// and the privileged-instruction emulator that together implement the vM-mode of the
// paper (§3.2, §4.1). The virtual CSR file is the shadow copy of the CSRs the
// firmware believes it owns ("MIRALIS maintains a shadow copy of the CSRs on which the
// instruction emulator operates"). It is a CsrFile (src/sim), the model the physical
// harts run, built for the virtual hart that VirtualHartIsa describes, and the
// emulator runs the harts' own privileged transitions on it (trap entry, interrupt
// selection, the CSR instruction, mret, sret and the wfi/sfence.vma/ecall gates, in
// src/sim/csr_file.h) with V fixed at 0: the vCPU has no V bit, and drops the V that
// an xRET would return to. What is the vCPU's own is the mapping onto an
// EmulationOutcome and a HAL work count. The emulator is a pure function of the
// virtual state and the shared GPRs — no machine access — which is what makes it
// checkable against the reference model (faithful emulation, Definition 1). The
// monitor (src/core/monitor) wraps it with world-switch and device logic.

#ifndef SRC_CORE_VCPU_H_
#define SRC_CORE_VCPU_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/common/state.h"
#include "src/isa/instr.h"
#include "src/isa/priv.h"
#include "src/sim/csr_file.h"

namespace vfm {

// The ISA of the virtual hart the firmware sees on harts with the `physical` ISA. It
// mirrors the physical platform (the time CSR, Sstc, the custom CSRs and the H
// extension), minus the PMP entries the monitor reserves for itself (Figure 5), and
// reports the platform identity (mvendorid, marchid, mimpid) as 0.
HartIsaConfig VirtualHartIsa(const HartIsaConfig& physical);

enum class EmulationOutcome {
  kAdvance,        // instruction emulated; virtual pc advances by 4
  kRedirect,       // virtual pc changed (mret/sret staying at or above vM, trap vector)
  kVirtualTrap,    // a virtual trap was entered; virtual pc now at the virtual handler
  kReturnToLower,  // mret/sret dropped below vM-mode: the monitor must world-switch
  kWfi,            // virtual hart executed wfi; the monitor parks the physical hart
};

struct EmulationResult {
  EmulationOutcome outcome = EmulationOutcome::kAdvance;
  uint64_t trap_cause = 0;      // for kVirtualTrap
  PrivMode lower_priv = PrivMode::kSupervisor;  // for kReturnToLower
  unsigned work_units = 1;      // HAL-operation count, for cycle accounting
};

class VirtContext : public ListedState<VirtContext> {
 public:
  // `hart_index` is the virtual mhartid.
  VirtContext(const HartIsaConfig& isa, unsigned hart_index) : csrs_(isa, hart_index) {}

  CsrFile& csrs() { return csrs_; }
  const CsrFile& csrs() const { return csrs_; }

  uint64_t pc() const { return state_.pc; }
  void set_pc(uint64_t pc) { state_.pc = pc; }
  PrivMode priv() const { return state_.priv; }
  void set_priv(PrivMode priv) { state_.priv = priv; }

  // Emulates one privileged instruction at the current virtual (pc, priv). `gprs` is
  // the 32-entry shared register file (x0 writes are discarded). Illegal outcomes are
  // resolved into virtual trap entries, mirroring hardware.
  EmulationResult EmulatePrivileged(const DecodedInstr& instr, uint64_t* gprs);

  // Architectural virtual trap entry (used for emulated faults and re-injection of OS
  // traps and interrupts into the virtual firmware, §4.1).
  void TakeVirtualTrap(uint64_t cause, uint64_t tval) { EnterTrap(csrs_, &state_, cause, tval); }

  // The virtual interrupt that must be injected, if any: pending and enabled under
  // the virtual mstatus/mie/mideleg (checked after each emulation per §4.1). Its
  // first stage is PendingVirtualMachineInterrupt's selector, so checking this one
  // against the reference model checks the one the monitor injects with.
  std::optional<uint64_t> PendingVirtualInterrupt() const {
    return SelectInterrupt(csrs_, state_.priv, /*virt=*/false);
  }

  // The subset the *monitor* may inject into vM-mode: virtual M-level interrupts
  // (not delegated by the virtual mideleg). Delegated supervisor-level interrupts
  // are delivered natively in direct execution through the physical mideleg — they
  // must never be emulated in the firmware world.
  std::optional<uint64_t> PendingVirtualMachineInterrupt() const {
    return SelectMachineInterrupt(csrs_, state_.priv);
  }

  // Uniform state API (DESIGN.md §2h): virtual pc, virtual privilege, and the
  // nested shadow CSR file (a CsrFile section). A privilege other than U, S or M
  // fails the load and leaves the privilege as it was.
  template <typename Io>
  void VisitState(Io& io) {
    io.BeginSection(StateTag("VCTX"), 1);
    io.U64(state_.pc);
    uint8_t priv = static_cast<uint8_t>(state_.priv);
    io.U8(priv);
    io.Require(IsPrivModeEncoding(priv), [priv] {
      return "virtual privilege " + std::to_string(priv) + " is not U, S or M";
    });
    if constexpr (Io::kLoading) {
      if (IsPrivModeEncoding(priv)) {
        state_.priv = static_cast<PrivMode>(priv);
      }
    }
    csrs_.VisitState(io);
    io.EndSection();
  }

 private:
  CsrFile csrs_;
  PrivState state_;  // `virt` stays 0: the vCPU has no V bit
};

}  // namespace vfm

#endif  // SRC_CORE_VCPU_H_
