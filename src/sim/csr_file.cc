#include "src/sim/csr_file.h"

#include "src/common/bits.h"
#include "src/common/check.h"

namespace vfm {

namespace {

constexpr uint64_t kMieWritableBase =
    InterruptMask(InterruptCause::kSupervisorSoftware) |
    InterruptMask(InterruptCause::kMachineSoftware) |
    InterruptMask(InterruptCause::kSupervisorTimer) |
    InterruptMask(InterruptCause::kMachineTimer) |
    InterruptMask(InterruptCause::kSupervisorExternal) |
    InterruptMask(InterruptCause::kMachineExternal);

constexpr uint64_t kMidelegWritable = kSupervisorInterrupts;

// Exceptions 0..15 minus ecall-from-M (11) and the reserved cause 14.
constexpr uint64_t kMedelegWritableBase = 0xFFFF & ~(uint64_t{1} << 11) & ~(uint64_t{1} << 14);
// Guest page faults (20, 21, 23) and virtual instruction (22), with the H extension.
constexpr uint64_t kMedelegWritableH = MaskRange(23, 20);

constexpr uint64_t kHedelegWritable =
    kMedelegWritableBase & ~(uint64_t{1} << 9) & ~(uint64_t{1} << 10);
constexpr uint64_t kHidelegWritable = kVsInterrupts;

constexpr uint64_t kMenvcfgStce = uint64_t{1} << 63;

bool IsPmpCfgAddr(uint16_t addr) { return addr >= kCsrPmpcfg0 && addr < kCsrPmpcfg0 + 16; }
bool IsPmpAddrAddr(uint16_t addr) { return addr >= kCsrPmpaddr0 && addr < kCsrPmpaddr0 + 64; }
bool IsMhpmCounter(uint16_t addr) { return addr >= kCsrMhpmcounter3 && addr <= 0xB1F; }
bool IsMhpmEvent(uint16_t addr) { return addr >= kCsrMhpmevent3 && addr <= 0x33F; }
bool IsHpmCounter(uint16_t addr) { return addr >= kCsrHpmcounter3 && addr <= 0xC1F; }

}  // namespace

CsrFile::CsrFile(const HartIsaConfig& config, unsigned hart_index)
    : config_(config), hart_index_(hart_index), pmp_(config.pmp_entries) {
  misa_ = kMisaMxl64 | MisaBit('I') | MisaBit('M') | MisaBit('A') | MisaBit('S') | MisaBit('U');
  if (config_.has_h_ext) {
    misa_ |= MisaBit('H');
  }
  // UXL and SXL are hardwired to 64-bit.
  mstatus_ = (uint64_t{2} << MstatusBits::kUxlLo) | (uint64_t{2} << MstatusBits::kSxlLo);
  vsstatus_ = uint64_t{2} << MstatusBits::kUxlLo;
  hstatus_ = uint64_t{2} << HstatusBits::kVsxlLo;
}

uint64_t CsrFile::LegalizeMstatus(uint64_t old_value, uint64_t new_value) const {
  uint64_t writable = (uint64_t{1} << MstatusBits::kSie) | (uint64_t{1} << MstatusBits::kMie) |
                      (uint64_t{1} << MstatusBits::kSpie) | (uint64_t{1} << MstatusBits::kMpie) |
                      (uint64_t{1} << MstatusBits::kSpp) |
                      MaskRange(MstatusBits::kMppHi, MstatusBits::kMppLo) |
                      MaskRange(MstatusBits::kFsHi, MstatusBits::kFsLo) |
                      MaskRange(MstatusBits::kVsHi, MstatusBits::kVsLo) |
                      (uint64_t{1} << MstatusBits::kMprv) | (uint64_t{1} << MstatusBits::kSum) |
                      (uint64_t{1} << MstatusBits::kMxr) | (uint64_t{1} << MstatusBits::kTvm) |
                      (uint64_t{1} << MstatusBits::kTw) | (uint64_t{1} << MstatusBits::kTsr);
  if (config_.has_h_ext) {
    writable |= (uint64_t{1} << MstatusBits::kMpv) | (uint64_t{1} << MstatusBits::kGva);
  }
  uint64_t value = (old_value & ~writable) | (new_value & writable);
  // MPP is WARL over the supported modes {U, S, M}; an illegal write keeps the old
  // value (matching the reference model).
  if (!IsPrivModeEncoding(ExtractBits(value, MstatusBits::kMppHi, MstatusBits::kMppLo))) {
    value = InsertBits(value, MstatusBits::kMppHi, MstatusBits::kMppLo,
                       ExtractBits(old_value, MstatusBits::kMppHi, MstatusBits::kMppLo));
  }
  // SD summarizes dirty FS/VS/XS state.
  const bool dirty = ExtractBits(value, MstatusBits::kFsHi, MstatusBits::kFsLo) == 3 ||
                     ExtractBits(value, MstatusBits::kVsHi, MstatusBits::kVsLo) == 3 ||
                     ExtractBits(value, MstatusBits::kXsHi, MstatusBits::kXsLo) == 3;
  value = SetBit(value, MstatusBits::kSd, dirty ? 1 : 0);
  return value;
}

uint64_t CsrFile::LegalizeTvec(uint64_t old_value, uint64_t new_value) {
  if ((new_value & 3) >= 2) {
    // Reserved mode: keep the previous mode, accept the base.
    return (new_value & ~uint64_t{3}) | (old_value & 3);
  }
  return new_value;
}

uint64_t CsrFile::EffectiveMip() const {
  uint64_t mip = mip_ | mip_lines_;
  if (config_.has_sstc && (menvcfg_ & kMenvcfgStce) != 0) {
    if (ReadTime() >= stimecmp_) {
      mip |= InterruptMask(InterruptCause::kSupervisorTimer);
    } else {
      mip &= ~InterruptMask(InterruptCause::kSupervisorTimer);
    }
  }
  // hvip injects VS-level interrupts.
  if (config_.has_h_ext) {
    mip |= hvip_ & kVsInterrupts;
  }
  return mip;
}

void CsrFile::SetInterruptLine(InterruptCause cause, bool level) {
  const uint64_t mask = InterruptMask(cause);
  if (level) {
    mip_lines_ |= mask;
  } else {
    mip_lines_ &= ~mask;
  }
}

bool CsrFile::CsrExists(uint16_t addr) const {
  switch (addr) {
    case kCsrMvendorid:
    case kCsrMarchid:
    case kCsrMimpid:
    case kCsrMhartid:
    case kCsrMconfigptr:
    case kCsrMstatus:
    case kCsrMisa:
    case kCsrMedeleg:
    case kCsrMideleg:
    case kCsrMie:
    case kCsrMtvec:
    case kCsrMcounteren:
    case kCsrMenvcfg:
    case kCsrMcountinhibit:
    case kCsrMscratch:
    case kCsrMepc:
    case kCsrMcause:
    case kCsrMtval:
    case kCsrMip:
    case kCsrMseccfg:
    case kCsrMcycle:
    case kCsrMinstret:
    case kCsrCycle:
    case kCsrInstret:
    case kCsrSstatus:
    case kCsrSie:
    case kCsrStvec:
    case kCsrScounteren:
    case kCsrSenvcfg:
    case kCsrSscratch:
    case kCsrSepc:
    case kCsrScause:
    case kCsrStval:
    case kCsrSip:
    case kCsrSatp:
      return true;
    case kCsrTime:
      return config_.has_time_csr;
    case kCsrStimecmp:
      return config_.has_sstc;
    case kCsrCustom0:
    case kCsrCustom1:
    case kCsrCustom2:
    case kCsrCustom3:
      return config_.has_custom_csrs;
    // The H extension adds mtval2/mtinst and the h* and vs* banks.
    case kCsrMtval2:
    case kCsrMtinst:
    case kCsrHstatus:
    case kCsrHedeleg:
    case kCsrHideleg:
    case kCsrHie:
    case kCsrHtimedelta:
    case kCsrHcounteren:
    case kCsrHenvcfg:
    case kCsrHtval:
    case kCsrHip:
    case kCsrHvip:
    case kCsrHtinst:
    case kCsrHgatp:
    case kCsrVsstatus:
    case kCsrVsie:
    case kCsrVstvec:
    case kCsrVsscratch:
    case kCsrVsepc:
    case kCsrVscause:
    case kCsrVstval:
    case kCsrVsip:
    case kCsrVsatp:
      return config_.has_h_ext;
    default:
      break;
  }
  if (IsPmpCfgAddr(addr)) {
    return (addr % 2) == 0;  // RV64: only even pmpcfg registers exist
  }
  // PMP address registers and the hardwired-zero performance counters.
  return IsPmpAddrAddr(addr) || IsMhpmCounter(addr) || IsMhpmEvent(addr) || IsHpmCounter(addr);
}

bool CsrFile::CounterReadable(uint16_t addr, PrivMode priv) const {
  unsigned bit = 0;
  if (addr == kCsrCycle) {
    bit = 0;
  } else if (addr == kCsrTime) {
    bit = 1;
  } else if (addr == kCsrInstret) {
    bit = 2;
  } else if (IsHpmCounter(addr)) {
    bit = addr - 0xC00;
  } else {
    return true;
  }
  if (priv == PrivMode::kMachine) {
    return true;
  }
  if ((mcounteren_ & (uint64_t{1} << bit)) == 0) {
    return false;
  }
  if (priv == PrivMode::kUser && (scounteren_ & (uint64_t{1} << bit)) == 0) {
    return false;
  }
  return true;
}

uint64_t CsrFile::Get(uint16_t addr) const {
  switch (addr) {
    case kCsrMisa:
      return misa_;
    case kCsrMvendorid:
      return config_.mvendorid;
    case kCsrMarchid:
      return config_.marchid;
    case kCsrMimpid:
      return config_.mimpid;
    case kCsrMhartid:
      return hart_index_;
    case kCsrMconfigptr:
      return 0;
    case kCsrMstatus:
      return mstatus_;
    case kCsrMedeleg:
      return medeleg_;
    case kCsrMideleg: {
      uint64_t value = mideleg_;
      if (config_.has_h_ext) {
        value |= kVsInterrupts;  // VS interrupts are always delegated past M
      }
      return value;
    }
    case kCsrMie:
      return mie_;
    case kCsrMip:
      return EffectiveMip();
    case kCsrMtvec:
      return mtvec_;
    case kCsrMcounteren:
      return mcounteren_;
    case kCsrMenvcfg:
      return menvcfg_;
    case kCsrMcountinhibit:
      return mcountinhibit_;
    case kCsrMscratch:
      return mscratch_;
    case kCsrMepc:
      return mepc_;
    case kCsrMcause:
      return mcause_;
    case kCsrMtval:
      return mtval_;
    case kCsrMtval2:
      return mtval2_;
    case kCsrMtinst:
      return mtinst_;
    case kCsrMseccfg:
      return mseccfg_;
    case kCsrMcycle:
    case kCsrCycle:
      return mcycle_;
    case kCsrMinstret:
    case kCsrInstret:
      return minstret_;
    case kCsrTime:
      return ReadTime();
    case kCsrSstatus:
      return mstatus_ & kSstatusMask;
    case kCsrSie:
      return mie_ & Get(kCsrMideleg) & kSupervisorInterrupts;
    case kCsrSip:
      return EffectiveMip() & Get(kCsrMideleg) & kSupervisorInterrupts;
    case kCsrStvec:
      return stvec_;
    case kCsrScounteren:
      return scounteren_;
    case kCsrSenvcfg:
      return senvcfg_;
    case kCsrSscratch:
      return sscratch_;
    case kCsrSepc:
      return sepc_;
    case kCsrScause:
      return scause_;
    case kCsrStval:
      return stval_;
    case kCsrSatp:
      return satp_;
    case kCsrStimecmp:
      return stimecmp_;
    case kCsrHstatus:
      return hstatus_;
    case kCsrHedeleg:
      return hedeleg_;
    case kCsrHideleg:
      return hideleg_;
    case kCsrHie:
      return hie_;
    case kCsrHtimedelta:
      return htimedelta_;
    case kCsrHcounteren:
      return hcounteren_;
    case kCsrHenvcfg:
      return henvcfg_;
    case kCsrHtval:
      return htval_;
    case kCsrHip:
      return EffectiveMip() & kVsInterrupts;
    case kCsrHvip:
      return hvip_;
    case kCsrHtinst:
      return htinst_;
    case kCsrHgatp:
      return hgatp_;
    case kCsrVsstatus:
      return vsstatus_;
    case kCsrVsie:
      return (mie_ & kVsInterrupts) >> 1;
    case kCsrVsip:
      return (EffectiveMip() & kVsInterrupts) >> 1;
    case kCsrVstvec:
      return vstvec_;
    case kCsrVsscratch:
      return vsscratch_;
    case kCsrVsepc:
      return vsepc_;
    case kCsrVscause:
      return vscause_;
    case kCsrVstval:
      return vstval_;
    case kCsrVsatp:
      return vsatp_;
    case kCsrCustom0:
    case kCsrCustom1:
    case kCsrCustom2:
    case kCsrCustom3:
      return custom_[addr - kCsrCustom0];
    default:
      break;
  }
  if (IsPmpCfgAddr(addr)) {
    return pmp_.ReadCfgReg(addr - kCsrPmpcfg0);
  }
  if (IsPmpAddrAddr(addr)) {
    return pmp_.ReadAddrReg(addr - kCsrPmpaddr0);
  }
  if (IsMhpmCounter(addr) || IsHpmCounter(addr) || IsMhpmEvent(addr)) {
    return 0;  // performance counters are hardwired to zero on the modeled platforms
  }
  return 0;
}

void CsrFile::Set(uint16_t addr, uint64_t value) {
  switch (addr) {
    case kCsrMisa:
    case kCsrMvendorid:
    case kCsrMarchid:
    case kCsrMimpid:
    case kCsrMhartid:
    case kCsrMconfigptr:
      return;  // read-only or hardwired
    case kCsrMstatus:
      mstatus_ = LegalizeMstatus(mstatus_, value);
      return;
    case kCsrMedeleg: {
      uint64_t writable = kMedelegWritableBase;
      if (config_.has_h_ext) {
        writable |= kMedelegWritableH;
      }
      medeleg_ = value & writable;
      return;
    }
    case kCsrMideleg:
      mideleg_ = value & kMidelegWritable;
      return;
    case kCsrMie: {
      uint64_t writable = kMieWritableBase;
      if (config_.has_h_ext) {
        writable |= kVsInterrupts | InterruptMask(InterruptCause::kSupervisorGuestExternal);
      }
      mie_ = value & writable;
      return;
    }
    case kCsrMip: {
      uint64_t writable = kSupervisorInterrupts;
      if (config_.has_h_ext) {
        writable |= kVsInterrupts;
      }
      if (config_.has_sstc && (menvcfg_ & kMenvcfgStce) != 0) {
        writable &= ~InterruptMask(InterruptCause::kSupervisorTimer);
      }
      mip_ = (mip_ & ~writable) | (value & writable);
      return;
    }
    case kCsrMtvec:
      mtvec_ = LegalizeTvec(mtvec_, value);
      return;
    case kCsrMcounteren:
      mcounteren_ = value & 0xFFFFFFFF;
      return;
    case kCsrMenvcfg: {
      uint64_t writable = uint64_t{0xF1};  // FIOM + CBIE-style low bits, stored only
      if (config_.has_sstc) {
        writable |= kMenvcfgStce;
      }
      menvcfg_ = value & writable;
      return;
    }
    case kCsrMcountinhibit:
      mcountinhibit_ = value & 0xFFFFFFFD;  // bit 1 reserved
      return;
    case kCsrMscratch:
      mscratch_ = value;
      return;
    case kCsrMepc:
      mepc_ = LegalizeEpc(value);
      return;
    case kCsrMcause:
      mcause_ = value & (kInterruptBit | 0xFF);
      return;
    case kCsrMtval:
      mtval_ = value;
      return;
    case kCsrMtval2:
      mtval2_ = value;
      return;
    case kCsrMtinst:
      mtinst_ = value;
      return;
    case kCsrMseccfg:
      mseccfg_ = value & 0x7;
      return;
    case kCsrMcycle:
      mcycle_ = value;
      return;
    case kCsrMinstret:
      minstret_ = value;
      return;
    case kCsrSstatus:
      mstatus_ = LegalizeMstatus(mstatus_, (mstatus_ & ~kSstatusMask) | (value & kSstatusMask));
      return;
    case kCsrSie: {
      const uint64_t accessible = Get(kCsrMideleg) & kSupervisorInterrupts;
      mie_ = (mie_ & ~accessible) | (value & accessible);
      return;
    }
    case kCsrSip: {
      // Only SSIP is software-writable through sip.
      const uint64_t accessible =
          Get(kCsrMideleg) & InterruptMask(InterruptCause::kSupervisorSoftware);
      mip_ = (mip_ & ~accessible) | (value & accessible);
      return;
    }
    case kCsrStvec:
      stvec_ = LegalizeTvec(stvec_, value);
      return;
    case kCsrScounteren:
      scounteren_ = value & 0xFFFFFFFF;
      return;
    case kCsrSenvcfg:
      senvcfg_ = value & 0xF1;
      return;
    case kCsrSscratch:
      sscratch_ = value;
      return;
    case kCsrSepc:
      sepc_ = LegalizeEpc(value);
      return;
    case kCsrScause:
      scause_ = value & (kInterruptBit | 0xFF);
      return;
    case kCsrStval:
      stval_ = value;
      return;
    case kCsrSatp: {
      const uint64_t mode = ExtractBits(value, SatpBits::kModeHi, SatpBits::kModeLo);
      if (mode != SatpBits::kModeBare && mode != SatpBits::kModeSv39) {
        return;  // unsupported mode: the entire write is ignored
      }
      // No software-TLB flush is needed here: the hart's TLB keys every entry on the
      // satp value itself (src/sim/hart.h), so a write — including the monitor's
      // constant 0 <-> OS-satp toggling across world switches — simply stops matching
      // old entries and starts matching any previously cached for the new value.
      satp_ = value & ~MaskRange(SatpBits::kAsidHi, SatpBits::kAsidLo);  // ASID hardwired 0
      return;
    }
    case kCsrStimecmp:
      stimecmp_ = value;
      return;
    case kCsrHstatus: {
      const uint64_t writable =
          (uint64_t{1} << HstatusBits::kGva) | (uint64_t{1} << HstatusBits::kSpv) |
          (uint64_t{1} << HstatusBits::kSpvp) | (uint64_t{1} << HstatusBits::kHu) |
          (uint64_t{1} << HstatusBits::kVtvm) | (uint64_t{1} << HstatusBits::kVtw) |
          (uint64_t{1} << HstatusBits::kVtsr);
      hstatus_ = (hstatus_ & ~writable) | (value & writable);
      return;
    }
    case kCsrHedeleg:
      hedeleg_ = value & kHedelegWritable;
      return;
    case kCsrHideleg:
      hideleg_ = value & kHidelegWritable;
      return;
    case kCsrHie:
      hie_ = value & (kVsInterrupts | InterruptMask(InterruptCause::kSupervisorGuestExternal));
      return;
    case kCsrHtimedelta:
      htimedelta_ = value;
      return;
    case kCsrHcounteren:
      hcounteren_ = value & 0xFFFFFFFF;
      return;
    case kCsrHenvcfg:
      henvcfg_ = value & 0xF1;
      return;
    case kCsrHtval:
      htval_ = value;
      return;
    case kCsrHvip:
      hvip_ = value & kVsInterrupts;
      return;
    case kCsrHtinst:
      htinst_ = value;
      return;
    case kCsrHgatp: {
      const uint64_t mode = ExtractBits(value, SatpBits::kModeHi, SatpBits::kModeLo);
      if (mode != SatpBits::kModeBare) {
        return;  // only Bare is modeled; other modes are ignored (documented subset)
      }
      hgatp_ = value & ~MaskRange(SatpBits::kAsidHi, SatpBits::kAsidLo);
      return;
    }
    case kCsrVsstatus:
      vsstatus_ = LegalizeMstatus(vsstatus_, (vsstatus_ & ~kSstatusMask) | (value & kSstatusMask));
      return;
    case kCsrVsie:
      mie_ = (mie_ & ~kVsInterrupts) | ((value << 1) & kVsInterrupts);
      return;
    case kCsrVsip:
      hvip_ = (hvip_ & ~InterruptMask(InterruptCause::kVirtualSupervisorSoftware)) |
              ((value << 1) & InterruptMask(InterruptCause::kVirtualSupervisorSoftware));
      return;
    case kCsrVstvec:
      vstvec_ = LegalizeTvec(vstvec_, value);
      return;
    case kCsrVsscratch:
      vsscratch_ = value;
      return;
    case kCsrVsepc:
      vsepc_ = LegalizeEpc(value);
      return;
    case kCsrVscause:
      vscause_ = value & (kInterruptBit | 0xFF);
      return;
    case kCsrVstval:
      vstval_ = value;
      return;
    case kCsrVsatp: {
      const uint64_t mode = ExtractBits(value, SatpBits::kModeHi, SatpBits::kModeLo);
      if (mode != SatpBits::kModeBare && mode != SatpBits::kModeSv39) {
        return;
      }
      vsatp_ = value & ~MaskRange(SatpBits::kAsidHi, SatpBits::kAsidLo);
      return;
    }
    case kCsrCustom0:
    case kCsrCustom1:
    case kCsrCustom2:
    case kCsrCustom3:
      custom_[addr - kCsrCustom0] = value;
      return;
    default:
      break;
  }
  if (IsPmpCfgAddr(addr)) {
    pmp_.WriteCfgReg(addr - kCsrPmpcfg0, value);
    return;
  }
  if (IsPmpAddrAddr(addr)) {
    pmp_.WriteAddrReg(addr - kCsrPmpaddr0, value);
    return;
  }
  // Performance counters are hardwired to zero: writes are ignored. Other unknown
  // CSRs are unreachable: callers check CsrExists first.
}

bool CsrFile::ReadCsr(uint16_t addr, PrivMode priv, bool virt, uint64_t* out) const {
  // In virtualization mode, supervisor CSR addresses access the vs* bank.
  if (virt && priv == PrivMode::kSupervisor) {
    switch (addr) {
      case kCsrSstatus:
        addr = kCsrVsstatus;
        break;
      case kCsrSie:
        addr = kCsrVsie;
        break;
      case kCsrSip:
        addr = kCsrVsip;
        break;
      case kCsrStvec:
        addr = kCsrVstvec;
        break;
      case kCsrSscratch:
        addr = kCsrVsscratch;
        break;
      case kCsrSepc:
        addr = kCsrVsepc;
        break;
      case kCsrScause:
        addr = kCsrVscause;
        break;
      case kCsrStval:
        addr = kCsrVstval;
        break;
      case kCsrSatp:
        addr = kCsrVsatp;
        break;
      default:
        break;
    }
  }
  // Hypervisor CSRs are not accessible from virtualized modes.
  if (virt && addr >= 0x600 && addr < 0x700) {
    return false;
  }
  if (!CsrExists(addr)) {
    return false;
  }
  if (static_cast<uint8_t>(priv) < static_cast<uint8_t>(CsrMinPriv(addr))) {
    return false;
  }
  if (!CounterReadable(addr, priv)) {
    return false;
  }
  // TVM traps satp accesses from S-mode.
  if (addr == kCsrSatp && priv == PrivMode::kSupervisor && !virt &&
      Bit(mstatus_, MstatusBits::kTvm) != 0) {
    return false;
  }
  if (addr == kCsrStimecmp && priv == PrivMode::kSupervisor &&
      (menvcfg_ & kMenvcfgStce) == 0) {
    return false;
  }
  *out = Get(addr);
  return true;
}

bool CsrFile::WriteCsr(uint16_t addr, PrivMode priv, bool virt, uint64_t value) {
  if (virt && priv == PrivMode::kSupervisor) {
    switch (addr) {
      case kCsrSstatus:
        addr = kCsrVsstatus;
        break;
      case kCsrSie:
        addr = kCsrVsie;
        break;
      case kCsrSip:
        addr = kCsrVsip;
        break;
      case kCsrStvec:
        addr = kCsrVstvec;
        break;
      case kCsrSscratch:
        addr = kCsrVsscratch;
        break;
      case kCsrSepc:
        addr = kCsrVsepc;
        break;
      case kCsrScause:
        addr = kCsrVscause;
        break;
      case kCsrStval:
        addr = kCsrVstval;
        break;
      case kCsrSatp:
        addr = kCsrVsatp;
        break;
      default:
        break;
    }
  }
  if (virt && addr >= 0x600 && addr < 0x700) {
    return false;
  }
  if (!CsrExists(addr)) {
    return false;
  }
  if (CsrIsReadOnly(addr)) {
    return false;
  }
  if (static_cast<uint8_t>(priv) < static_cast<uint8_t>(CsrMinPriv(addr))) {
    return false;
  }
  if (addr == kCsrSatp && priv == PrivMode::kSupervisor && !virt &&
      Bit(mstatus_, MstatusBits::kTvm) != 0) {
    return false;
  }
  if (addr == kCsrStimecmp && priv == PrivMode::kSupervisor &&
      (menvcfg_ & kMenvcfgStce) == 0) {
    return false;
  }
  Set(addr, value);
  return true;
}

// -- Privileged transitions. -----------------------------------------------------------

PrivMode EnterTrap(CsrFile& csrs, PrivState* state, uint64_t cause, uint64_t tval) {
  const bool has_h = csrs.config().has_h_ext;
  const bool is_interrupt = (cause & kInterruptBit) != 0;
  const uint64_t code = cause & ~kInterruptBit;
  const uint64_t code_bit = code < 64 ? uint64_t{1} << code : 0;
  const uint64_t deleg = is_interrupt ? csrs.Get(kCsrMideleg) : csrs.medeleg();
  const bool to_s = state->priv != PrivMode::kMachine && (deleg & code_bit) != 0;
  const uint64_t from_user = state->priv == PrivMode::kUser ? 0 : 1;

  if (to_s && has_h && state->virt) {
    const uint64_t hdeleg = is_interrupt ? csrs.hideleg() : csrs.hedeleg();
    if ((hdeleg & code_bit) != 0) {
      // Trap to VS-mode. VS interrupts use the supervisor encoding inside the guest.
      uint64_t vs_cause = cause;
      if (is_interrupt && (code_bit & kVsInterrupts) != 0) {
        vs_cause = cause - 1;
      }
      csrs.Set(kCsrVscause, vs_cause);
      csrs.Set(kCsrVsepc, state->pc);
      csrs.Set(kCsrVstval, tval);
      uint64_t vsstatus = csrs.Get(kCsrVsstatus);
      vsstatus = SetBit(vsstatus, MstatusBits::kSpie, Bit(vsstatus, MstatusBits::kSie));
      vsstatus = SetBit(vsstatus, MstatusBits::kSie, 0);
      vsstatus = SetBit(vsstatus, MstatusBits::kSpp, from_user);
      csrs.Set(kCsrVsstatus, vsstatus);
      state->priv = PrivMode::kSupervisor;
      state->pc = TrapTargetPc(csrs.vstvec(), vs_cause);
      return PrivMode::kSupervisor;
    }
  }
  if (to_s) {
    if (has_h) {
      // Trap to HS-mode: hstatus records the V (and, from V = 1, the privilege) left.
      uint64_t hstatus = SetBit(csrs.hstatus(), HstatusBits::kSpv, state->virt ? 1 : 0);
      if (state->virt) {
        hstatus = SetBit(hstatus, HstatusBits::kSpvp, from_user);
      }
      csrs.Set(kCsrHstatus, hstatus);
    }
    csrs.Set(kCsrScause, cause);
    csrs.Set(kCsrSepc, state->pc);
    csrs.Set(kCsrStval, tval);
    uint64_t mstatus = csrs.mstatus();
    mstatus = SetBit(mstatus, MstatusBits::kSpie, Bit(mstatus, MstatusBits::kSie));
    mstatus = SetBit(mstatus, MstatusBits::kSie, 0);
    mstatus = SetBit(mstatus, MstatusBits::kSpp, from_user);
    csrs.set_mstatus(mstatus);
    state->priv = PrivMode::kSupervisor;
    state->virt = false;
    state->pc = TrapTargetPc(csrs.stvec(), cause);
    return PrivMode::kSupervisor;
  }

  csrs.Set(kCsrMcause, cause);
  csrs.Set(kCsrMepc, state->pc);
  csrs.Set(kCsrMtval, tval);
  uint64_t mstatus = csrs.mstatus();
  mstatus = SetBit(mstatus, MstatusBits::kMpie, Bit(mstatus, MstatusBits::kMie));
  mstatus = SetBit(mstatus, MstatusBits::kMie, 0);
  mstatus = InsertBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo,
                       static_cast<uint64_t>(state->priv));
  if (has_h) {
    mstatus = SetBit(mstatus, MstatusBits::kMpv, state->virt ? 1 : 0);
  }
  csrs.set_mstatus(mstatus);
  state->priv = PrivMode::kMachine;
  state->virt = false;
  state->pc = TrapTargetPc(csrs.mtvec(), cause);
  return PrivMode::kMachine;
}

namespace {

// The highest-priority interrupt of `order` that is set in `pending`, or nullopt.
template <size_t N>
std::optional<uint64_t> Highest(uint64_t pending, const InterruptCause (&order)[N]) {
  for (const InterruptCause cause : order) {
    if ((pending & InterruptMask(cause)) != 0) {
      return CauseValue(cause);
    }
  }
  return std::nullopt;
}

// The M-level stage over `pending` (mip & mie).
std::optional<uint64_t> MachineStage(const CsrFile& csrs, uint64_t pending, PrivMode priv) {
  static constexpr InterruptCause kOrder[] = {
      InterruptCause::kMachineExternal,    InterruptCause::kMachineSoftware,
      InterruptCause::kMachineTimer,       InterruptCause::kSupervisorExternal,
      InterruptCause::kSupervisorSoftware, InterruptCause::kSupervisorTimer,
  };
  const uint64_t m_pending = pending & ~csrs.Get(kCsrMideleg);
  const bool m_enabled = priv != PrivMode::kMachine || Bit(csrs.mstatus(), MstatusBits::kMie) != 0;
  return m_pending != 0 && m_enabled ? Highest(m_pending, kOrder) : std::nullopt;
}

}  // namespace

std::optional<uint64_t> SelectMachineInterrupt(const CsrFile& csrs, PrivMode priv) {
  return MachineStage(csrs, csrs.EffectiveMip() & csrs.mie(), priv);
}

std::optional<uint64_t> SelectInterrupt(const CsrFile& csrs, PrivMode priv, bool virt) {
  const uint64_t pending = csrs.EffectiveMip() & csrs.mie();
  if (const std::optional<uint64_t> m = MachineStage(csrs, pending, priv)) {
    return m;
  }
  if (priv == PrivMode::kMachine) {
    return std::nullopt;
  }
  // S-level: delegated to HS/S, not to VS; always enabled below S or from V = 1.
  static constexpr InterruptCause kSOrder[] = {
      InterruptCause::kSupervisorExternal,
      InterruptCause::kSupervisorSoftware,
      InterruptCause::kSupervisorTimer,
  };
  const uint64_t hideleg = csrs.config().has_h_ext ? csrs.hideleg() : 0;
  const uint64_t s_pending = pending & csrs.Get(kCsrMideleg) & ~hideleg & ~kVsInterrupts;
  const bool s_enabled = priv == PrivMode::kUser || virt ||
                         Bit(csrs.mstatus(), MstatusBits::kSie) != 0;
  if (s_pending != 0 && s_enabled) {
    return Highest(s_pending, kSOrder);
  }
  // VS-level: taken only while virtualized.
  static constexpr InterruptCause kVsOrder[] = {
      InterruptCause::kVirtualSupervisorExternal,
      InterruptCause::kVirtualSupervisorSoftware,
      InterruptCause::kVirtualSupervisorTimer,
  };
  const uint64_t vs_pending = pending & hideleg & kVsInterrupts;
  const bool vs_enabled = virt && (priv == PrivMode::kUser ||
                                   Bit(csrs.Get(kCsrVsstatus), MstatusBits::kSie) != 0);
  return vs_pending != 0 && vs_enabled ? Highest(vs_pending, kVsOrder) : std::nullopt;
}

bool ExecuteCsrInstr(CsrFile& csrs, const DecodedInstr& d, uint64_t rs1_value,
                     PrivMode priv, bool virt, uint64_t* rd_value) {
  const bool is_imm = d.op == Op::kCsrrwi || d.op == Op::kCsrrsi || d.op == Op::kCsrrci;
  const uint64_t operand = is_imm ? d.zimm : rs1_value;
  const bool is_write_op = d.op == Op::kCsrrw || d.op == Op::kCsrrwi;
  const bool write_needed = is_write_op || d.rs1 != 0 || (is_imm && d.zimm != 0);
  const bool read_needed = !is_write_op || d.rd != 0;

  // The `time` CSR (and cycle/instret in some configs) requires the time source;
  // reads of an absent time CSR raise illegal instruction so firmware can emulate
  // them — one of the paper's five dominant trap causes (§3.4).
  uint64_t old_value = 0;
  if (read_needed && !csrs.ReadCsr(d.csr, priv, virt, &old_value)) {
    return false;
  }
  if (write_needed) {
    uint64_t new_value = operand;
    if (d.op == Op::kCsrrs || d.op == Op::kCsrrsi) {
      new_value = old_value | operand;
    } else if (d.op == Op::kCsrrc || d.op == Op::kCsrrci) {
      new_value = old_value & ~operand;
    }
    if (!csrs.WriteCsr(d.csr, priv, virt, new_value)) {
      return false;
    }
  }
  *rd_value = old_value;
  return true;
}

bool Mret(CsrFile& csrs, PrivState* state) {
  if (state->priv != PrivMode::kMachine) {
    return false;
  }
  uint64_t mstatus = csrs.mstatus();
  const PrivMode target =
      static_cast<PrivMode>(ExtractBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo));
  state->virt = csrs.config().has_h_ext && target != PrivMode::kMachine &&
                Bit(mstatus, MstatusBits::kMpv) != 0;
  mstatus = SetBit(mstatus, MstatusBits::kMie, Bit(mstatus, MstatusBits::kMpie));
  mstatus = SetBit(mstatus, MstatusBits::kMpie, 1);
  mstatus = InsertBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo,
                       static_cast<uint64_t>(PrivMode::kUser));
  mstatus = SetBit(mstatus, MstatusBits::kMpv, 0);
  if (target != PrivMode::kMachine) {
    mstatus = SetBit(mstatus, MstatusBits::kMprv, 0);
  }
  csrs.set_mstatus(mstatus);
  state->priv = target;
  state->pc = csrs.mepc();
  return true;
}

bool Sret(CsrFile& csrs, PrivState* state) {
  if (state->priv == PrivMode::kUser) {
    return false;
  }
  if (state->virt) {
    if (Bit(csrs.hstatus(), HstatusBits::kVtsr) != 0) {
      return false;
    }
    // sret inside a virtualized supervisor uses the vs* bank and stays at V = 1.
    uint64_t vsstatus = csrs.Get(kCsrVsstatus);
    const bool spp = Bit(vsstatus, MstatusBits::kSpp) != 0;
    vsstatus = SetBit(vsstatus, MstatusBits::kSie, Bit(vsstatus, MstatusBits::kSpie));
    vsstatus = SetBit(vsstatus, MstatusBits::kSpie, 1);
    vsstatus = SetBit(vsstatus, MstatusBits::kSpp, 0);
    csrs.Set(kCsrVsstatus, vsstatus);
    state->priv = spp ? PrivMode::kSupervisor : PrivMode::kUser;
    state->pc = csrs.Get(kCsrVsepc);
    return true;
  }
  if (state->priv == PrivMode::kSupervisor && Bit(csrs.mstatus(), MstatusBits::kTsr) != 0) {
    return false;
  }
  uint64_t mstatus = csrs.mstatus();
  const bool spp = Bit(mstatus, MstatusBits::kSpp) != 0;
  mstatus = SetBit(mstatus, MstatusBits::kSie, Bit(mstatus, MstatusBits::kSpie));
  mstatus = SetBit(mstatus, MstatusBits::kSpie, 1);
  mstatus = SetBit(mstatus, MstatusBits::kSpp, 0);
  mstatus = SetBit(mstatus, MstatusBits::kMprv, 0);
  csrs.set_mstatus(mstatus);
  if (csrs.config().has_h_ext) {
    state->virt = Bit(csrs.hstatus(), HstatusBits::kSpv) != 0;
    csrs.Set(kCsrHstatus, SetBit(csrs.hstatus(), HstatusBits::kSpv, 0));
  }
  state->priv = spp ? PrivMode::kSupervisor : PrivMode::kUser;
  state->pc = csrs.sepc();
  return true;
}

bool WfiPermitted(const CsrFile& csrs, PrivMode priv, bool virt) {
  // With S-mode implemented, wfi is not available in U-mode.
  if (priv == PrivMode::kUser) {
    return false;
  }
  if (virt) {
    return Bit(csrs.hstatus(), HstatusBits::kVtw) == 0;
  }
  return priv != PrivMode::kSupervisor || Bit(csrs.mstatus(), MstatusBits::kTw) == 0;
}

bool SfenceVmaPermitted(const CsrFile& csrs, PrivMode priv, bool virt) {
  if (priv == PrivMode::kUser) {
    return false;
  }
  return virt || priv != PrivMode::kSupervisor || Bit(csrs.mstatus(), MstatusBits::kTvm) == 0;
}

uint64_t EcallCause(PrivMode priv, bool virt) {
  switch (priv) {
    case PrivMode::kMachine:
      return CauseValue(ExceptionCause::kEcallFromM);
    case PrivMode::kSupervisor:
      return CauseValue(virt ? ExceptionCause::kEcallFromVs : ExceptionCause::kEcallFromS);
    case PrivMode::kUser:
      break;
  }
  return CauseValue(ExceptionCause::kEcallFromU);
}

}  // namespace vfm
