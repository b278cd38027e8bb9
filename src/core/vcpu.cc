#include "src/core/vcpu.h"

#include "src/core/vpmp.h"

namespace vfm {

HartIsaConfig VirtualHartIsa(const HartIsaConfig& physical) {
  HartIsaConfig isa;
  isa.pmp_entries = VpmpLayout::VirtualEntries(physical.pmp_entries);
  isa.has_time_csr = physical.has_time_csr;
  isa.has_sstc = physical.has_sstc;
  isa.has_custom_csrs = physical.has_custom_csrs;
  isa.has_h_ext = physical.has_h_ext;
  return isa;
}

EmulationResult VirtContext::EmulatePrivileged(const DecodedInstr& d, uint64_t* gprs) {
  EmulationResult result;
  // Where the instruction does not complete, it traps: illegal unless set otherwise.
  uint64_t cause = CauseValue(ExceptionCause::kIllegalInstr);
  uint64_t tval = d.raw;
  switch (d.op) {
    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc:
    case Op::kCsrrwi:
    case Op::kCsrrsi:
    case Op::kCsrrci: {
      uint64_t old_value = 0;
      if (!ExecuteCsrInstr(csrs_, d, gprs[d.rs1], state_.priv, /*virt=*/false, &old_value)) {
        break;
      }
      if (d.rd != 0) {
        gprs[d.rd] = old_value;
      }
      state_.pc += 4;
      result.work_units = 3;
      return result;
    }
    case Op::kMret:
    case Op::kSret:
      if (!(d.op == Op::kMret ? Mret(csrs_, &state_) : Sret(csrs_, &state_))) {
        break;
      }
      state_.virt = false;  // no V bit: the V an xRET returns to is dropped
      result.work_units = 5;
      if (state_.priv == PrivMode::kMachine) {
        result.outcome = EmulationOutcome::kRedirect;
      } else {
        result.outcome = EmulationOutcome::kReturnToLower;
        result.lower_priv = state_.priv;
      }
      return result;
    case Op::kWfi:
      if (!WfiPermitted(csrs_, state_.priv, /*virt=*/false)) {
        break;
      }
      state_.pc += 4;
      result.outcome = EmulationOutcome::kWfi;
      result.work_units = 2;
      return result;
    case Op::kSfenceVma:
      if (!SfenceVmaPermitted(csrs_, state_.priv, /*virt=*/false)) {
        break;
      }
      state_.pc += 4;
      result.work_units = 2;
      return result;
    case Op::kEcall:
      cause = EcallCause(state_.priv, /*virt=*/false);
      tval = 0;
      break;
    case Op::kEbreak:
      cause = CauseValue(ExceptionCause::kBreakpoint);
      tval = state_.pc;
      break;
    default:
      // Anything else that trapped is not a valid privileged instruction in vM-mode.
      break;
  }
  TakeVirtualTrap(cause, tval);
  result.outcome = EmulationOutcome::kVirtualTrap;
  result.trap_cause = cause;
  result.work_units = 4;
  return result;
}

}  // namespace vfm
