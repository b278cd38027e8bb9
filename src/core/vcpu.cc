#include "src/core/vcpu.h"

#include "src/common/bits.h"
#include "src/common/state.h"
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

void VirtContext::TakeVirtualTrap(uint64_t cause, uint64_t tval) {
  const bool is_interrupt = (cause & kInterruptBit) != 0;
  const uint64_t code = cause & ~kInterruptBit;
  const uint64_t deleg = is_interrupt ? csrs_.mideleg() : csrs_.medeleg();
  const bool to_s = priv_ != PrivMode::kMachine && code < 64 &&
                    (deleg & (uint64_t{1} << code)) != 0;
  if (to_s) {
    csrs_.Set(kCsrScause, cause);
    csrs_.Set(kCsrSepc, pc_);
    csrs_.Set(kCsrStval, tval);
    uint64_t status = csrs_.mstatus();
    status = SetBit(status, MstatusBits::kSpie, Bit(status, MstatusBits::kSie));
    status = SetBit(status, MstatusBits::kSie, 0);
    status = SetBit(status, MstatusBits::kSpp, priv_ == PrivMode::kUser ? 0 : 1);
    csrs_.Set(kCsrMstatus, status);
    priv_ = PrivMode::kSupervisor;
    pc_ = TrapTargetPc(csrs_.Get(kCsrStvec), cause);
    return;
  }
  csrs_.Set(kCsrMcause, cause);
  csrs_.Set(kCsrMepc, pc_);
  csrs_.Set(kCsrMtval, tval);
  uint64_t status = csrs_.mstatus();
  status = SetBit(status, MstatusBits::kMpie, Bit(status, MstatusBits::kMie));
  status = SetBit(status, MstatusBits::kMie, 0);
  status = InsertBits(status, MstatusBits::kMppHi, MstatusBits::kMppLo,
                      static_cast<uint64_t>(priv_));
  csrs_.Set(kCsrMstatus, status);
  priv_ = PrivMode::kMachine;
  pc_ = TrapTargetPc(csrs_.mtvec(), cause);
}

std::optional<uint64_t> VirtContext::PendingVirtualInterrupt() const {
  if (const std::optional<uint64_t> m = PendingVirtualMachineInterrupt()) {
    return m;
  }
  const uint64_t s_pending = csrs_.EffectiveMip() & csrs_.mie() & csrs_.mideleg();
  const bool s_enabled = priv_ == PrivMode::kUser ||
                         (priv_ == PrivMode::kSupervisor &&
                          Bit(csrs_.mstatus(), MstatusBits::kSie) != 0);
  if (s_pending != 0 && s_enabled) {
    static const InterruptCause kSPriority[] = {
        InterruptCause::kSupervisorExternal,
        InterruptCause::kSupervisorSoftware,
        InterruptCause::kSupervisorTimer,
    };
    for (InterruptCause cause : kSPriority) {
      if ((s_pending & InterruptMask(cause)) != 0) {
        return CauseValue(cause);
      }
    }
  }
  return std::nullopt;
}

std::optional<uint64_t> VirtContext::PendingVirtualMachineInterrupt() const {
  const uint64_t pending = csrs_.EffectiveMip() & csrs_.mie() & ~csrs_.mideleg();
  if (pending == 0) {
    return std::nullopt;
  }
  const bool m_enabled = priv_ != PrivMode::kMachine ||
                         Bit(csrs_.mstatus(), MstatusBits::kMie) != 0;
  if (!m_enabled) {
    return std::nullopt;
  }
  static const InterruptCause kPriority[] = {
      InterruptCause::kMachineExternal,    InterruptCause::kMachineSoftware,
      InterruptCause::kMachineTimer,       InterruptCause::kSupervisorExternal,
      InterruptCause::kSupervisorSoftware, InterruptCause::kSupervisorTimer,
  };
  for (InterruptCause cause : kPriority) {
    if ((pending & InterruptMask(cause)) != 0) {
      return CauseValue(cause);
    }
  }
  return std::nullopt;
}

EmulationResult VirtContext::IllegalInstr(const DecodedInstr& instr) {
  EmulationResult result;
  result.outcome = EmulationOutcome::kVirtualTrap;
  result.trap_cause = CauseValue(ExceptionCause::kIllegalInstr);
  result.work_units = 4;
  TakeVirtualTrap(result.trap_cause, instr.raw);
  return result;
}

EmulationResult VirtContext::EmulateCsrOp(const DecodedInstr& d, uint64_t* gprs) {
  const bool is_imm = d.op == Op::kCsrrwi || d.op == Op::kCsrrsi || d.op == Op::kCsrrci;
  const uint64_t operand = is_imm ? d.zimm : gprs[d.rs1];
  const bool is_write_op = d.op == Op::kCsrrw || d.op == Op::kCsrrwi;
  const bool write_needed = is_write_op || d.rs1 != 0 || (is_imm && d.zimm != 0);
  const bool read_needed = !is_write_op || d.rd != 0;

  uint64_t old_value = 0;
  if (read_needed) {
    if (!csrs_.ReadCsr(d.csr, priv_, /*virt=*/false, &old_value)) {
      return IllegalInstr(d);
    }
  }
  if (write_needed) {
    uint64_t new_value = operand;
    if (d.op == Op::kCsrrs || d.op == Op::kCsrrsi) {
      new_value = old_value | operand;
    } else if (d.op == Op::kCsrrc || d.op == Op::kCsrrci) {
      new_value = old_value & ~operand;
    }
    if (!csrs_.WriteCsr(d.csr, priv_, /*virt=*/false, new_value)) {
      return IllegalInstr(d);
    }
  }
  if (d.rd != 0) {
    gprs[d.rd] = old_value;
  }
  pc_ += 4;
  EmulationResult result;
  result.work_units = 3;
  return result;
}

EmulationResult VirtContext::EmulateMret() {
  uint64_t status = csrs_.mstatus();
  const uint64_t mpp = ExtractBits(status, MstatusBits::kMppHi, MstatusBits::kMppLo);
  status = SetBit(status, MstatusBits::kMie, Bit(status, MstatusBits::kMpie));
  status = SetBit(status, MstatusBits::kMpie, 1);
  status = InsertBits(status, MstatusBits::kMppHi, MstatusBits::kMppLo,
                      static_cast<uint64_t>(PrivMode::kUser));
  if (mpp != static_cast<uint64_t>(PrivMode::kMachine)) {
    status = SetBit(status, MstatusBits::kMprv, 0);
  }
  csrs_.Set(kCsrMstatus, status);
  pc_ = csrs_.mepc();
  priv_ = static_cast<PrivMode>(mpp);

  EmulationResult result;
  result.work_units = 5;
  if (priv_ == PrivMode::kMachine) {
    result.outcome = EmulationOutcome::kRedirect;
  } else {
    result.outcome = EmulationOutcome::kReturnToLower;
    result.lower_priv = priv_;
  }
  return result;
}

EmulationResult VirtContext::EmulateSret() {
  if (priv_ == PrivMode::kSupervisor && Bit(csrs_.mstatus(), MstatusBits::kTsr) != 0) {
    DecodedInstr sret;
    sret.op = Op::kSret;
    sret.raw = 0x10200073;
    return IllegalInstr(sret);
  }
  uint64_t status = csrs_.mstatus();
  const bool spp = Bit(status, MstatusBits::kSpp) != 0;
  status = SetBit(status, MstatusBits::kSie, Bit(status, MstatusBits::kSpie));
  status = SetBit(status, MstatusBits::kSpie, 1);
  status = SetBit(status, MstatusBits::kSpp, 0);
  status = SetBit(status, MstatusBits::kMprv, 0);
  csrs_.Set(kCsrMstatus, status);
  pc_ = csrs_.Get(kCsrSepc);
  priv_ = spp ? PrivMode::kSupervisor : PrivMode::kUser;

  EmulationResult result;
  result.work_units = 5;
  result.outcome = EmulationOutcome::kReturnToLower;
  result.lower_priv = priv_;
  return result;
}

EmulationResult VirtContext::EmulatePrivileged(const DecodedInstr& d, uint64_t* gprs) {
  EmulationResult result;
  switch (d.op) {
    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc:
    case Op::kCsrrwi:
    case Op::kCsrrsi:
    case Op::kCsrrci:
      return EmulateCsrOp(d, gprs);
    case Op::kMret:
      if (priv_ != PrivMode::kMachine) {
        return IllegalInstr(d);
      }
      return EmulateMret();
    case Op::kSret:
      if (priv_ == PrivMode::kUser) {
        return IllegalInstr(d);
      }
      return EmulateSret();
    case Op::kWfi:
      if (priv_ == PrivMode::kUser) {
        return IllegalInstr(d);
      }
      if (priv_ == PrivMode::kSupervisor && Bit(csrs_.mstatus(), MstatusBits::kTw) != 0) {
        return IllegalInstr(d);
      }
      pc_ += 4;
      result.outcome = EmulationOutcome::kWfi;
      result.work_units = 2;
      return result;
    case Op::kSfenceVma:
      if (priv_ == PrivMode::kUser ||
          (priv_ == PrivMode::kSupervisor && Bit(csrs_.mstatus(), MstatusBits::kTvm) != 0)) {
        return IllegalInstr(d);
      }
      pc_ += 4;
      result.work_units = 2;
      return result;
    case Op::kEcall: {
      uint64_t cause = CauseValue(ExceptionCause::kEcallFromU);
      if (priv_ == PrivMode::kSupervisor) {
        cause = CauseValue(ExceptionCause::kEcallFromS);
      } else if (priv_ == PrivMode::kMachine) {
        cause = CauseValue(ExceptionCause::kEcallFromM);
      }
      TakeVirtualTrap(cause, 0);
      result.outcome = EmulationOutcome::kVirtualTrap;
      result.trap_cause = cause;
      result.work_units = 4;
      return result;
    }
    case Op::kEbreak:
      TakeVirtualTrap(CauseValue(ExceptionCause::kBreakpoint), pc_);
      result.outcome = EmulationOutcome::kVirtualTrap;
      result.trap_cause = CauseValue(ExceptionCause::kBreakpoint);
      result.work_units = 4;
      return result;
    default:
      // Anything else that trapped is not a valid privileged instruction in vM-mode.
      return IllegalInstr(d);
  }
}


void VirtContext::SaveState(StateWriter& writer) const {
  writer.BeginSection(StateTag("VCTX"), 1);
  writer.U64(pc_);
  writer.U8(static_cast<uint8_t>(priv_));
  csrs_.SaveState(writer);
  writer.EndSection();
}

bool VirtContext::LoadState(StateReader& reader) {
  reader.BeginSection(StateTag("VCTX"));
  pc_ = reader.U64();
  priv_ = static_cast<PrivMode>(reader.U8());
  csrs_.LoadState(reader);
  reader.EndSection();
  return reader.ok();
}

}  // namespace vfm
