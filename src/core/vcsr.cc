#include "src/core/vcsr.h"

#include "src/common/bits.h"

#include "src/common/state.h"

namespace vfm {

namespace {

constexpr uint64_t kVMieWritable = kSupervisorInterrupts | kMachineInterrupts;
constexpr uint64_t kVMipWritable = kSupervisorInterrupts;
constexpr uint64_t kVMedelegWritable = 0xFFFF & ~(uint64_t{1} << 11) & ~(uint64_t{1} << 14);
constexpr uint64_t kVStceBit = uint64_t{1} << 63;

bool InPmpCfgRange(uint16_t addr) { return addr >= kCsrPmpcfg0 && addr < kCsrPmpcfg0 + 16; }
bool InPmpAddrRange(uint16_t addr) { return addr >= kCsrPmpaddr0 && addr < kCsrPmpaddr0 + 64; }
bool InHpmRange(uint16_t addr) {
  return (addr >= kCsrMhpmcounter3 && addr <= 0xB1F) ||
         (addr >= kCsrMhpmevent3 && addr <= 0x33F) ||
         (addr >= kCsrHpmcounter3 && addr <= 0xC1F);
}
bool InHShadowRange(uint16_t addr) {
  return (addr >= 0x600 && addr < 0x700) || (addr >= 0x200 && addr < 0x300);
}

// Maps an h*/vs* address to a shadow slot index.
unsigned HShadowSlot(uint16_t addr) {
  switch (addr) {
    case kCsrHstatus: return 0;
    case kCsrHedeleg: return 1;
    case kCsrHideleg: return 2;
    case kCsrHie: return 3;
    case kCsrHtval: return 4;
    case kCsrHvip: return 5;
    case kCsrHgatp: return 6;
    case kCsrVsstatus: return 7;
    case kCsrVsie: return 8;
    case kCsrVstvec: return 9;
    case kCsrVsscratch: return 10;
    case kCsrVsepc: return 11;
    case kCsrVscause: return 12;
    case kCsrVstval: return 13;
    case kCsrVsip: return 14;
    case kCsrVsatp: return 15;
    default: return 16;
  }
}

}  // namespace

VCsrFile::VCsrFile(const VhartConfig& config) : config_(config), pmp_(config.pmp_entries) {
  mstatus_ = (uint64_t{2} << MstatusBits::kUxlLo) | (uint64_t{2} << MstatusBits::kSxlLo);
}

uint64_t VCsrFile::LegalizeVStatus(uint64_t old_value, uint64_t new_value) const {
  const uint64_t writable =
      (uint64_t{1} << MstatusBits::kSie) | (uint64_t{1} << MstatusBits::kMie) |
      (uint64_t{1} << MstatusBits::kSpie) | (uint64_t{1} << MstatusBits::kMpie) |
      (uint64_t{1} << MstatusBits::kSpp) | MaskRange(MstatusBits::kMppHi, MstatusBits::kMppLo) |
      MaskRange(MstatusBits::kFsHi, MstatusBits::kFsLo) |
      MaskRange(MstatusBits::kVsHi, MstatusBits::kVsLo) | (uint64_t{1} << MstatusBits::kMprv) |
      (uint64_t{1} << MstatusBits::kSum) | (uint64_t{1} << MstatusBits::kMxr) |
      (uint64_t{1} << MstatusBits::kTvm) | (uint64_t{1} << MstatusBits::kTw) |
      (uint64_t{1} << MstatusBits::kTsr);
  uint64_t value = (old_value & ~writable) | (new_value & writable);
  if (ExtractBits(value, MstatusBits::kMppHi, MstatusBits::kMppLo) == 2) {
    value = InsertBits(value, MstatusBits::kMppHi, MstatusBits::kMppLo,
                       ExtractBits(old_value, MstatusBits::kMppHi, MstatusBits::kMppLo));
  }
  const bool dirty = ExtractBits(value, MstatusBits::kFsHi, MstatusBits::kFsLo) == 3 ||
                     ExtractBits(value, MstatusBits::kVsHi, MstatusBits::kVsLo) == 3 ||
                     ExtractBits(value, MstatusBits::kXsHi, MstatusBits::kXsLo) == 3;
  value = SetBit(value, MstatusBits::kSd, dirty ? 1 : 0);
  return value;
}

uint64_t VCsrFile::EffectiveMip() const {
  uint64_t mip = mip_ | mip_lines_;
  if (config_.has_sstc && (menvcfg_ & kVStceBit) != 0) {
    if (ReadTime() >= stimecmp_) {
      mip |= InterruptMask(InterruptCause::kSupervisorTimer);
    } else {
      mip &= ~InterruptMask(InterruptCause::kSupervisorTimer);
    }
  }
  return mip;
}

void VCsrFile::SetVirtualInterruptLine(InterruptCause cause, bool level) {
  const uint64_t mask = InterruptMask(cause);
  if (level) {
    mip_lines_ |= mask;
  } else {
    mip_lines_ &= ~mask;
  }
}

bool VCsrFile::Exists(uint16_t addr) const {
  if (addr == kCsrTime) {
    return config_.has_time_csr;
  }
  if (addr == kCsrStimecmp) {
    return config_.has_sstc;
  }
  if (addr >= kCsrCustom0 && addr <= kCsrCustom3) {
    return config_.has_custom_csrs;
  }
  if (InHShadowRange(addr)) {
    return config_.has_h_ext && LookupCsr(addr) != nullptr && HShadowSlot(addr) < 16;
  }
  if (InPmpCfgRange(addr)) {
    return (addr % 2) == 0;
  }
  if (InPmpAddrRange(addr) || InHpmRange(addr)) {
    return true;
  }
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
    default:
      return false;
  }
}

uint64_t VCsrFile::Get(uint16_t addr) const {
  if (InPmpCfgRange(addr)) {
    return pmp_.ReadCfgReg(addr - kCsrPmpcfg0);
  }
  if (InPmpAddrRange(addr)) {
    return pmp_.ReadAddrReg(addr - kCsrPmpaddr0);
  }
  if (InHpmRange(addr)) {
    return 0;
  }
  if (InHShadowRange(addr)) {
    const unsigned slot = HShadowSlot(addr);
    return slot < 16 ? hshadow_[slot] : 0;
  }
  switch (addr) {
    case kCsrMhartid:
      return config_.hart_index;
    case kCsrMvendorid:
    case kCsrMarchid:
    case kCsrMimpid:
    case kCsrMconfigptr:
      return 0;  // virtual platform identity
    case kCsrMisa:
      return kMisaMxl64 | MisaBit('I') | MisaBit('M') | MisaBit('A') | MisaBit('S') |
             MisaBit('U');
    case kCsrMstatus:
      return mstatus_;
    case kCsrMedeleg:
      return medeleg_;
    case kCsrMideleg:
      return mideleg_;
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
      return mie_ & mideleg_ & kSupervisorInterrupts;
    case kCsrSip:
      return EffectiveMip() & mideleg_ & kSupervisorInterrupts;
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
    case kCsrCustom0:
    case kCsrCustom1:
    case kCsrCustom2:
    case kCsrCustom3:
      return custom_[addr - kCsrCustom0];
    default:
      return 0;
  }
}

void VCsrFile::Set(uint16_t addr, uint64_t value) {
  // The virtual PMP's WARL legalization and lock rules are PmpBank's. The paper
  // found several of its 21 bugs in this legalization; Table 2's CSR-write task
  // sweeps it against the reference model's own rules.
  if (InPmpCfgRange(addr)) {
    pmp_.WriteCfgReg(addr - kCsrPmpcfg0, value);
    return;
  }
  if (InPmpAddrRange(addr)) {
    pmp_.WriteAddrReg(addr - kCsrPmpaddr0, value);
    return;
  }
  if (InHpmRange(addr)) {
    return;
  }
  if (InHShadowRange(addr)) {
    const unsigned slot = HShadowSlot(addr);
    if (slot < 16) {
      hshadow_[slot] = value;
    }
    return;
  }
  switch (addr) {
    case kCsrMvendorid:
    case kCsrMarchid:
    case kCsrMimpid:
    case kCsrMhartid:
    case kCsrMconfigptr:
    case kCsrMisa:
      return;
    case kCsrMstatus:
      mstatus_ = LegalizeVStatus(mstatus_, value);
      return;
    case kCsrMedeleg:
      medeleg_ = value & kVMedelegWritable;
      return;
    case kCsrMideleg:
      mideleg_ = value & kSupervisorInterrupts;
      return;
    case kCsrMie:
      mie_ = value & kVMieWritable;
      return;
    case kCsrMip: {
      uint64_t writable = kVMipWritable;
      if (config_.has_sstc && (menvcfg_ & kVStceBit) != 0) {
        writable &= ~InterruptMask(InterruptCause::kSupervisorTimer);
      }
      mip_ = (mip_ & ~writable) | (value & writable);
      return;
    }
    case kCsrMtvec:
      mtvec_ = ((value & 3) >= 2) ? ((value & ~uint64_t{3}) | (mtvec_ & 3)) : value;
      return;
    case kCsrMcounteren:
      mcounteren_ = value & 0xFFFFFFFF;
      return;
    case kCsrMenvcfg: {
      uint64_t writable = uint64_t{0xF1};
      if (config_.has_sstc) {
        writable |= kVStceBit;
      }
      menvcfg_ = value & writable;
      return;
    }
    case kCsrMcountinhibit:
      mcountinhibit_ = value & 0xFFFFFFFD;
      return;
    case kCsrMscratch:
      mscratch_ = value;
      return;
    case kCsrMepc:
      mepc_ = value & ~uint64_t{3};
      return;
    case kCsrMcause:
      mcause_ = value & (kInterruptBit | 0xFF);
      return;
    case kCsrMtval:
      mtval_ = value;
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
      mstatus_ = LegalizeVStatus(mstatus_, (mstatus_ & ~kSstatusMask) | (value & kSstatusMask));
      return;
    case kCsrSie: {
      const uint64_t accessible = mideleg_ & kSupervisorInterrupts;
      mie_ = (mie_ & ~accessible) | (value & accessible);
      return;
    }
    case kCsrSip: {
      const uint64_t accessible = mideleg_ & InterruptMask(InterruptCause::kSupervisorSoftware);
      mip_ = (mip_ & ~accessible) | (value & accessible);
      return;
    }
    case kCsrStvec:
      stvec_ = ((value & 3) >= 2) ? ((value & ~uint64_t{3}) | (stvec_ & 3)) : value;
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
      sepc_ = value & ~uint64_t{3};
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
        return;
      }
      satp_ = value & ~MaskRange(SatpBits::kAsidHi, SatpBits::kAsidLo);
      return;
    }
    case kCsrStimecmp:
      stimecmp_ = value;
      return;
    case kCsrCustom0:
    case kCsrCustom1:
    case kCsrCustom2:
    case kCsrCustom3:
      custom_[addr - kCsrCustom0] = value;
      return;
    default:
      return;
  }
}

bool VCsrFile::Read(uint16_t addr, PrivMode priv, uint64_t* out) const {
  if (!Exists(addr)) {
    return false;
  }
  if (static_cast<uint8_t>(priv) < static_cast<uint8_t>(CsrMinPriv(addr))) {
    return false;
  }
  // Counter gating through mcounteren/scounteren.
  const bool is_counter =
      addr == kCsrCycle || addr == kCsrTime || addr == kCsrInstret ||
      (addr >= kCsrHpmcounter3 && addr <= 0xC1F);
  if (is_counter && priv != PrivMode::kMachine) {
    const unsigned bit = addr - 0xC00;
    if ((mcounteren_ & (uint64_t{1} << bit)) == 0) {
      return false;
    }
    if (priv == PrivMode::kUser && (scounteren_ & (uint64_t{1} << bit)) == 0) {
      return false;
    }
  }
  if (addr == kCsrSatp && priv == PrivMode::kSupervisor &&
      Bit(mstatus_, MstatusBits::kTvm) != 0) {
    return false;
  }
  if (addr == kCsrStimecmp && priv == PrivMode::kSupervisor && (menvcfg_ & kVStceBit) == 0) {
    return false;
  }
  *out = Get(addr);
  return true;
}

bool VCsrFile::Write(uint16_t addr, PrivMode priv, uint64_t value) {
  if (!Exists(addr)) {
    return false;
  }
  if (CsrIsReadOnly(addr)) {
    return false;
  }
  if (static_cast<uint8_t>(priv) < static_cast<uint8_t>(CsrMinPriv(addr))) {
    return false;
  }
  if (addr == kCsrSatp && priv == PrivMode::kSupervisor &&
      Bit(mstatus_, MstatusBits::kTvm) != 0) {
    return false;
  }
  if (addr == kCsrStimecmp && priv == PrivMode::kSupervisor && (menvcfg_ & kVStceBit) == 0) {
    return false;
  }
  Set(addr, value);
  return true;
}


void VCsrFile::SaveState(StateWriter& writer) const {
  writer.BeginSection(StateTag("VCSR"), 1);
  writer.U64(mstatus_);
  writer.U64(medeleg_);
  writer.U64(mideleg_);
  writer.U64(mie_);
  writer.U64(mip_);
  writer.U64(mip_lines_);
  writer.U64(mtvec_);
  writer.U64(mcounteren_);
  writer.U64(menvcfg_);
  writer.U64(mcountinhibit_);
  writer.U64(mscratch_);
  writer.U64(mepc_);
  writer.U64(mcause_);
  writer.U64(mtval_);
  writer.U64(mseccfg_);
  writer.U64(mcycle_);
  writer.U64(minstret_);
  writer.U64(stvec_);
  writer.U64(scounteren_);
  writer.U64(senvcfg_);
  writer.U64(sscratch_);
  writer.U64(sepc_);
  writer.U64(scause_);
  writer.U64(stval_);
  writer.U64(satp_);
  writer.U64(stimecmp_);
  pmp_.SaveState(writer);
  for (uint64_t v : custom_) {
    writer.U64(v);
  }
  for (uint64_t v : hshadow_) {
    writer.U64(v);
  }
  writer.EndSection();
}

bool VCsrFile::LoadState(StateReader& reader) {
  reader.BeginSection(StateTag("VCSR"));
  // Values were legalized when first written, so direct assignment reproduces the
  // exact shadow state; routing them back through Set() could re-legalize
  // differently if WARL rules ever tighten.
  mstatus_ = reader.U64();
  medeleg_ = reader.U64();
  mideleg_ = reader.U64();
  mie_ = reader.U64();
  mip_ = reader.U64();
  mip_lines_ = reader.U64();
  mtvec_ = reader.U64();
  mcounteren_ = reader.U64();
  menvcfg_ = reader.U64();
  mcountinhibit_ = reader.U64();
  mscratch_ = reader.U64();
  mepc_ = reader.U64();
  mcause_ = reader.U64();
  mtval_ = reader.U64();
  mseccfg_ = reader.U64();
  mcycle_ = reader.U64();
  minstret_ = reader.U64();
  stvec_ = reader.U64();
  scounteren_ = reader.U64();
  senvcfg_ = reader.U64();
  sscratch_ = reader.U64();
  sepc_ = reader.U64();
  scause_ = reader.U64();
  stval_ = reader.U64();
  satp_ = reader.U64();
  stimecmp_ = reader.U64();
  pmp_.LoadState(reader);
  for (uint64_t& v : custom_) {
    v = reader.U64();
  }
  for (uint64_t& v : hshadow_) {
    v = reader.U64();
  }
  reader.EndSection();
  return reader.ok();
}

}  // namespace vfm
