#include "src/sim/hart.h"

#include <algorithm>
#include <cstring>

#include "src/common/bits.h"
#include "src/common/check.h"
#include "src/common/log.h"
#include "src/common/state.h"

namespace vfm {

namespace {

unsigned AccessSizeOf(Op op) {
  switch (op) {
    case Op::kLb:
    case Op::kLbu:
    case Op::kSb:
      return 1;
    case Op::kLh:
    case Op::kLhu:
    case Op::kSh:
      return 2;
    case Op::kLw:
    case Op::kLwu:
    case Op::kSw:
      return 4;
    default:
      return 8;
  }
}

bool IsStoreOp(Op op) { return op == Op::kSb || op == Op::kSh || op == Op::kSw || op == Op::kSd; }

}  // namespace

namespace {

// Rounds up to a power of two so the index is a mask.
uint64_t RoundUpPow2(uint64_t entries) {
  while ((entries & (entries - 1)) != 0) {
    entries += entries & -entries;
  }
  return entries;
}

}  // namespace

Hart::Hart(unsigned index, Bus* bus, const HartIsaConfig& isa, const CostModel* cost,
           const SimTuning& tuning)
    : index_(index), bus_(bus), cost_(cost), csrs_(isa, index) {
  // Cache sizing only — allocation is deferred to the first Tick/RunBatch
  // (EnsureCaches), keeping hart construction microsecond-cheap for Machine::Fork.
  if (tuning.decode_cache_entries != 0) {
    pending_icache_entries_ = RoundUpPow2(tuning.decode_cache_entries);
  }
  if (tuning.tlb_enabled && tuning.tlb_entries != 0) {
    pending_tlb_entries_ = RoundUpPow2(tuning.tlb_entries);
  }
  // The superblock cache builds from decode-cache entries, so it is only allocated
  // when the decode cache exists.
  if (pending_icache_entries_ != 0 && tuning.superblock_entries != 0) {
    pending_sb_entries_ = RoundUpPow2(tuning.superblock_entries);
    // The threaded tier lowers from superblocks, so it only exists when they do.
    // instr_base >= 1 is required by the executor's single clamped budget compare
    // (every retired instruction charges at least one cycle); all cost models
    // satisfy it, but a hypothetical free-instruction model falls back cleanly.
    if (tuning.threaded_enabled && cost->instr_base >= 1) {
      pending_threaded_ = true;
      threaded_threshold_ =
          tuning.threaded_promote_threshold == 0 ? 1 : tuning.threaded_promote_threshold;
    }
  }
}

void Hart::EnsureCaches() {
  caches_ready_ = true;
  if (pending_icache_entries_ != 0) {
    icache_ = MappedArray<FetchEntry>(pending_icache_entries_);
    icache_mask_ = pending_icache_entries_ - 1;
    pending_icache_entries_ = 0;
  }
  if (pending_tlb_entries_ != 0) {
    for (auto& array : tlb_) {
      array = MappedArray<TlbEntry>(pending_tlb_entries_);
    }
    tlb_mask_ = pending_tlb_entries_ - 1;
    pending_tlb_entries_ = 0;
  }
  if (pending_sb_entries_ != 0) {
    sblocks_ = MappedArray<SuperblockEntry>(pending_sb_entries_);
    sb_mask_ = pending_sb_entries_ - 1;
    if (pending_threaded_) {
      tcode_ = MappedArray<ThreadedBlock>(pending_sb_entries_);
      pending_threaded_ = false;
    }
    pending_sb_entries_ = 0;
  }
}

uint64_t Hart::cache_stamp() const {
  return bus_->code_generation() + csrs_.pmp().generation() + fence_gen_;
}

uint64_t Hart::tlb_stamp() const {
  // ram_generation() is folded in for the host-pointer fast path: a RAM remap must
  // invalidate every cached host_page pointer before it can dangle or go stale.
  return bus_->pt_generation() + csrs_.pmp().generation() + tlb_gen_ + bus_->ram_generation();
}

uint8_t Hart::TlbCtx(PrivMode priv, bool sum, bool mxr, AccessType type) {
  uint8_t ctx = static_cast<uint8_t>(priv);
  if (sum && type != AccessType::kFetch) {
    ctx |= 1 << 2;
  }
  if (mxr && type == AccessType::kLoad) {
    ctx |= 1 << 3;
  }
  return ctx;
}

void Hart::FlushTlb() {
  if (tlb_mask_ == 0) {
    return;
  }
  ++tlb_gen_;  // invalidates every entry via the stamp compare
  ++tlb_flushes_;
}

void Hart::FlushTlbPage(uint64_t vaddr) {
  if (tlb_mask_ == 0) {
    return;
  }
  const uint64_t vpage = vaddr >> 12;
  for (auto& array : tlb_) {
    TlbEntry& entry = array[vpage & tlb_mask_];
    if (entry.vpage == vpage) {
      entry.vpage = ~uint64_t{0};
    }
  }
  ++tlb_flushes_;
}

PrivMode Hart::DataPriv() const {
  const uint64_t mstatus = csrs_.mstatus();
  if (priv_ == PrivMode::kMachine && Bit(mstatus, MstatusBits::kMprv) != 0) {
    return static_cast<PrivMode>(ExtractBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo));
  }
  return priv_;
}

bool Hart::DataVirt() const {
  const uint64_t mstatus = csrs_.mstatus();
  if (priv_ == PrivMode::kMachine && Bit(mstatus, MstatusBits::kMprv) != 0) {
    return Bit(mstatus, MstatusBits::kMpv) != 0 &&
           ExtractBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo) !=
               static_cast<uint64_t>(PrivMode::kMachine);
  }
  return virt_;
}

Hart::AccessOutcome Hart::TranslateWith(const PmpBank& pmp, bool cacheable,
                                        const TranslateParams& params, uint64_t vaddr,
                                        unsigned size, AccessType type) {
  AccessOutcome out;
  // The TLB engages only where TranslateSv39 would actually walk: Sv39 mode at S/U
  // effective privilege. Bare-mode and M-mode accesses are identity-mapped already.
  const bool walked =
      ExtractBits(params.satp, SatpBits::kModeHi, SatpBits::kModeLo) == SatpBits::kModeSv39 &&
      params.priv != PrivMode::kMachine;
  const bool engaged = cacheable && tlb_mask_ != 0 && walked;
  const uint64_t vpage = vaddr >> 12;
  TlbEntry* slot = nullptr;
  if (engaged) {
    slot = &tlb_[static_cast<unsigned>(type)][vpage & tlb_mask_];
    // A hit replays a previous successful walk for this access type: the satp value
    // and context byte prove the walk inputs match, and the stamp proves no store
    // touched the page tables it read (and no PMP write or explicit flush happened).
    // Entries are filled only post-A/D-update, so a hit never writes memory.
    if (slot->vpage == vpage && slot->satp == params.satp &&
        slot->ctx == TlbCtx(params.priv, params.sum, params.mxr, type) &&
        slot->stamp == tlb_stamp()) {
      ++tlb_hits_;
      const uint64_t paddr = slot->paddr_page | (vaddr & MaskLow(12));
      out.extra_cycles = slot->extra_cycles;  // the original walk's cycle cost
      // The final PMP check depends on the access size. When the fill-time check
      // proved the whole frame uniformly permitted it is skipped — any contained
      // access matches the same PMP entry with the same verdict (a spanning
      // misaligned access reaches past the frame, so it still scans). The per-PTE
      // walk checks are covered by the PMP generation folded into the stamp.
      if ((!slot->pmp_whole_page || (vaddr & MaskLow(12)) + size > 4096) &&
          !pmp.Check(paddr, size, type, params.priv)) {
        out.cause = AccessFaultFor(type);
        return out;
      }
      out.ok = true;
      out.paddr = paddr;
      // Only decode-cache fills consume the replayed PTE addresses, and they only
      // ever see fetch translations; data hits skip the copy.
      if (type == AccessType::kFetch) {
        out.pte_count = slot->pte_count;
        for (unsigned i = 0; i < slot->pte_count; ++i) {
          out.pte_addrs[i] = slot->pte_addrs[i];
        }
      }
      return out;
    }
    ++tlb_misses_;
  }

  const TranslateResult tr =
      TranslateSv39(bus_, pmp, params, vaddr, type, segment_active_ ? &segment_pt_ : nullptr);
  if (!tr.ok) {
    out.cause = tr.fault;
    out.segment_abort = tr.segment_abort;
    return out;
  }
  out.extra_cycles = tr.walk_levels * cost_->page_walk_level;
  if (!pmp.Check(tr.paddr, size, type, params.priv)) {
    out.cause = AccessFaultFor(type);
    return out;
  }
  out.ok = true;
  out.paddr = tr.paddr;
  out.pte_count = tr.pte_count;
  for (unsigned i = 0; i < tr.pte_count; ++i) {
    out.pte_addrs[i] = tr.pte_addrs[i];
  }

  if (engaged) {
    // Fill: mark every PTE page the walk read so a later store into a page table
    // invalidates this entry. A PTE page outside RAM cannot be watched, so such
    // translations are never cached. The stamp is taken AFTER marking — the walk's
    // own A/D update may have stored into a marked page and bumped pt_generation.
    bool trackable = true;
    for (unsigned i = 0; i < tr.pte_count; ++i) {
      trackable &= bus_->MarkPtPage(tr.pte_addrs[i]);
    }
    if (trackable) {
      slot->vpage = vpage;
      slot->paddr_page = tr.paddr & ~MaskLow(12);
      slot->satp = params.satp;
      slot->extra_cycles = out.extra_cycles;
      slot->pte_count = static_cast<uint8_t>(tr.pte_count);
      for (unsigned i = 0; i < tr.pte_count; ++i) {
        slot->pte_addrs[i] = tr.pte_addrs[i];
      }
      slot->ctx = TlbCtx(params.priv, params.sum, params.mxr, type);
      slot->pmp_whole_page = pmp.Check(slot->paddr_page, 4096, type, params.priv);
      // Host-pointer fast path: only whole-page-permitted plain-RAM frames qualify,
      // so a superblock access through host_page needs no per-access PMP or routing.
      slot->host_page = nullptr;
      slot->page_mark = nullptr;
      if (slot->pmp_whole_page) {
        uint8_t* data = nullptr;
        const uint8_t* marks = nullptr;
        if (bus_->HostPage(slot->paddr_page, &data, &marks)) {
          slot->host_page = data;
          slot->page_mark = marks;
        }
      }
      slot->stamp = tlb_stamp();
    }
  }
  return out;
}

Hart::AccessOutcome Hart::Translate(uint64_t vaddr, unsigned size, AccessType type,
                                    PrivMode priv, bool use_vsatp) {
  TranslateParams params;
  params.satp = use_vsatp ? csrs_.vsatp() : csrs_.satp();
  params.priv = priv;
  const uint64_t status = use_vsatp ? csrs_.Get(kCsrVsstatus) : csrs_.mstatus();
  params.sum = Bit(status, MstatusBits::kSum) != 0;
  params.mxr = Bit(status, MstatusBits::kMxr) != 0;
  return TranslateWith(csrs_.pmp(), /*cacheable=*/true, params, vaddr, size, type);
}

Hart::MemResult Hart::ReadMemory(uint64_t vaddr, unsigned size, uint64_t* value) {
  MemResult result;
  if (!csrs_.config().hw_misaligned && !IsAligned(vaddr, size)) {
    result.ok = false;
    result.cause = ExceptionCause::kLoadAddrMisaligned;
    return result;
  }
  const AccessOutcome out = Translate(vaddr, size, AccessType::kLoad, DataPriv(), DataVirt());
  if (!out.ok) {
    result.ok = false;
    result.cause = out.cause;
    return result;
  }
  if (!bus_->Read(out.paddr, size, value)) {
    result.ok = false;
    result.cause = ExceptionCause::kLoadAccessFault;
    return result;
  }
  return result;
}

Hart::MemResult Hart::WriteMemory(uint64_t vaddr, unsigned size, uint64_t value) {
  MemResult result;
  if (!csrs_.config().hw_misaligned && !IsAligned(vaddr, size)) {
    result.ok = false;
    result.cause = ExceptionCause::kStoreAddrMisaligned;
    return result;
  }
  const AccessOutcome out = Translate(vaddr, size, AccessType::kStore, DataPriv(), DataVirt());
  if (!out.ok) {
    result.ok = false;
    result.cause = out.cause;
    return result;
  }
  if (!bus_->Write(out.paddr, size, value)) {
    result.ok = false;
    result.cause = ExceptionCause::kStoreAccessFault;
    return result;
  }
  return result;
}

Hart::MemResult Hart::ReadMemoryAs(PrivMode priv, uint64_t satp_override, uint64_t vaddr,
                                   unsigned size, uint64_t* value,
                                   const PmpBank* pmp_override) {
  MemResult result;
  const PmpBank& pmp = pmp_override != nullptr ? *pmp_override : csrs_.pmp();
  TranslateParams params;
  params.satp = satp_override;
  params.priv = priv;
  const uint64_t mstatus = csrs_.mstatus();
  params.sum = Bit(mstatus, MstatusBits::kSum) != 0;
  params.mxr = Bit(mstatus, MstatusBits::kMxr) != 0;
  // With a PMP override (the monitor's MPRV emulation passes the firmware's virtual
  // bank), the TLB is bypassed entirely: its stamp tracks only the physical bank's
  // generation, so entries can neither validate against nor be filled under a foreign
  // bank. Overrideless calls share entries with the interpreter path.
  const AccessOutcome out = TranslateWith(pmp, /*cacheable=*/pmp_override == nullptr, params,
                                          vaddr, size, AccessType::kLoad);
  if (!out.ok) {
    result.ok = false;
    result.cause = out.cause;
    return result;
  }
  if (!bus_->Read(out.paddr, size, value)) {
    result.ok = false;
    result.cause = ExceptionCause::kLoadAccessFault;
    return result;
  }
  return result;
}

Hart::MemResult Hart::WriteMemoryAs(PrivMode priv, uint64_t satp_override, uint64_t vaddr,
                                    unsigned size, uint64_t value,
                                    const PmpBank* pmp_override) {
  MemResult result;
  const PmpBank& pmp = pmp_override != nullptr ? *pmp_override : csrs_.pmp();
  TranslateParams params;
  params.satp = satp_override;
  params.priv = priv;
  const uint64_t mstatus = csrs_.mstatus();
  params.sum = Bit(mstatus, MstatusBits::kSum) != 0;
  params.mxr = Bit(mstatus, MstatusBits::kMxr) != 0;
  const AccessOutcome out = TranslateWith(pmp, /*cacheable=*/pmp_override == nullptr, params,
                                          vaddr, size, AccessType::kStore);
  if (!out.ok) {
    result.ok = false;
    result.cause = out.cause;
    return result;
  }
  if (!bus_->Write(out.paddr, size, value)) {
    result.ok = false;
    result.cause = ExceptionCause::kStoreAccessFault;
    return result;
  }
  return result;
}

std::optional<uint64_t> Hart::PendingInterrupt() const {
  const uint64_t mip = csrs_.EffectiveMip();
  const uint64_t mie = csrs_.mie();
  const uint64_t pending = mip & mie;
  if (pending == 0) {
    return std::nullopt;  // fast path: nothing pending and enabled
  }
  const uint64_t mideleg = csrs_.Get(kCsrMideleg);
  const uint64_t mstatus = csrs_.mstatus();

  // Machine-level interrupts (not delegated).
  const uint64_t m_pending = pending & ~mideleg;
  const bool m_enabled =
      priv_ != PrivMode::kMachine || Bit(mstatus, MstatusBits::kMie) != 0;
  if (m_pending != 0 && m_enabled) {
    static const InterruptCause kPriority[] = {
        InterruptCause::kMachineExternal,   InterruptCause::kMachineSoftware,
        InterruptCause::kMachineTimer,      InterruptCause::kSupervisorExternal,
        InterruptCause::kSupervisorSoftware, InterruptCause::kSupervisorTimer,
    };
    for (InterruptCause cause : kPriority) {
      if ((m_pending & InterruptMask(cause)) != 0) {
        return CauseValue(cause);
      }
    }
  }

  // Supervisor-level interrupts (delegated to S, not to VS).
  const uint64_t hideleg = csrs_.config().has_h_ext ? csrs_.hideleg() : 0;
  const uint64_t s_pending = pending & mideleg & ~hideleg & ~kVsInterrupts;
  const bool s_enabled =
      priv_ == PrivMode::kUser || virt_ ||
      (priv_ == PrivMode::kSupervisor && Bit(mstatus, MstatusBits::kSie) != 0);
  if (s_pending != 0 && priv_ != PrivMode::kMachine && s_enabled) {
    static const InterruptCause kPriority[] = {
        InterruptCause::kSupervisorExternal,
        InterruptCause::kSupervisorSoftware,
        InterruptCause::kSupervisorTimer,
    };
    for (InterruptCause cause : kPriority) {
      if ((s_pending & InterruptMask(cause)) != 0) {
        return CauseValue(cause);
      }
    }
  }

  // VS-level interrupts: taken only while in a virtualized mode.
  if (csrs_.config().has_h_ext) {
    const uint64_t vs_pending = pending & (mideleg | kVsInterrupts) & hideleg & kVsInterrupts;
    const uint64_t vsstatus = csrs_.Get(kCsrVsstatus);
    const bool vs_enabled =
        virt_ && (priv_ == PrivMode::kUser ||
                  (priv_ == PrivMode::kSupervisor && Bit(vsstatus, MstatusBits::kSie) != 0));
    if (vs_pending != 0 && vs_enabled) {
      static const InterruptCause kPriority[] = {
          InterruptCause::kVirtualSupervisorExternal,
          InterruptCause::kVirtualSupervisorSoftware,
          InterruptCause::kVirtualSupervisorTimer,
      };
      for (InterruptCause cause : kPriority) {
        if ((vs_pending & InterruptMask(cause)) != 0) {
          return CauseValue(cause);
        }
      }
    }
  }
  return std::nullopt;
}

StepResult Hart::TakeTrap(uint64_t cause, uint64_t tval) {
  StepResult result;
  result.executed = true;
  result.trapped = true;
  result.trap_cause = cause;
  result.cycles = cost_->trap_entry;
  ++traps_taken_;
  waiting_ = false;

  const bool is_interrupt = (cause & kInterruptBit) != 0;
  const uint64_t code = cause & ~kInterruptBit;
  const uint64_t deleg = is_interrupt ? csrs_.Get(kCsrMideleg) : csrs_.medeleg();
  const bool delegated_to_s =
      priv_ != PrivMode::kMachine && code < 64 && (deleg & (uint64_t{1} << code)) != 0;

  if (delegated_to_s && csrs_.config().has_h_ext && virt_) {
    const uint64_t hdeleg = is_interrupt ? csrs_.hideleg() : csrs_.hedeleg();
    if (code < 64 && (hdeleg & (uint64_t{1} << code)) != 0) {
      // Trap to VS-mode. VS interrupts use the supervisor encoding inside the guest.
      uint64_t vs_code = code;
      if (is_interrupt && (InterruptMask(static_cast<InterruptCause>(code)) & kVsInterrupts)) {
        vs_code = code - 1;
      }
      csrs_.Set(kCsrVscause, (is_interrupt ? kInterruptBit : 0) | vs_code);
      csrs_.Set(kCsrVsepc, pc_);
      csrs_.Set(kCsrVstval, tval);
      uint64_t vsstatus = csrs_.Get(kCsrVsstatus);
      vsstatus = SetBit(vsstatus, MstatusBits::kSpie, Bit(vsstatus, MstatusBits::kSie));
      vsstatus = SetBit(vsstatus, MstatusBits::kSie, 0);
      vsstatus = SetBit(vsstatus, MstatusBits::kSpp,
                        priv_ == PrivMode::kUser ? 0 : 1);
      csrs_.Set(kCsrVsstatus, vsstatus);
      priv_ = PrivMode::kSupervisor;
      pc_ = TrapTargetPc(csrs_.vstvec(), (is_interrupt ? kInterruptBit : 0) | vs_code);
      result.trap_target = PrivMode::kSupervisor;
      return result;
    }
    // Trap to HS-mode from a virtualized mode.
    uint64_t hstatus = csrs_.Get(kCsrHstatus);
    hstatus = SetBit(hstatus, HstatusBits::kSpv, 1);
    hstatus = SetBit(hstatus, HstatusBits::kSpvp, priv_ == PrivMode::kUser ? 0 : 1);
    csrs_.Set(kCsrHstatus, hstatus);
    virt_ = false;
  } else if (delegated_to_s && csrs_.config().has_h_ext) {
    uint64_t hstatus = csrs_.Get(kCsrHstatus);
    hstatus = SetBit(hstatus, HstatusBits::kSpv, 0);
    csrs_.Set(kCsrHstatus, hstatus);
  }

  if (delegated_to_s) {
    csrs_.Set(kCsrScause, cause);
    csrs_.Set(kCsrSepc, pc_);
    csrs_.Set(kCsrStval, tval);
    uint64_t mstatus = csrs_.mstatus();
    mstatus = SetBit(mstatus, MstatusBits::kSpie, Bit(mstatus, MstatusBits::kSie));
    mstatus = SetBit(mstatus, MstatusBits::kSie, 0);
    mstatus = SetBit(mstatus, MstatusBits::kSpp, priv_ == PrivMode::kUser ? 0 : 1);
    csrs_.set_mstatus(mstatus);
    priv_ = PrivMode::kSupervisor;
    pc_ = TrapTargetPc(csrs_.stvec(), cause);
    result.trap_target = PrivMode::kSupervisor;
    return result;
  }

  // Trap to M-mode.
  csrs_.Set(kCsrMcause, cause);
  csrs_.Set(kCsrMepc, pc_);
  csrs_.Set(kCsrMtval, tval);
  uint64_t mstatus = csrs_.mstatus();
  mstatus = SetBit(mstatus, MstatusBits::kMpie, Bit(mstatus, MstatusBits::kMie));
  mstatus = SetBit(mstatus, MstatusBits::kMie, 0);
  mstatus = InsertBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo,
                       static_cast<uint64_t>(priv_));
  if (csrs_.config().has_h_ext) {
    mstatus = SetBit(mstatus, MstatusBits::kMpv, virt_ ? 1 : 0);
  }
  csrs_.set_mstatus(mstatus);
  virt_ = false;
  priv_ = PrivMode::kMachine;
  pc_ = TrapTargetPc(csrs_.mtvec(), cause);
  result.trap_target = PrivMode::kMachine;
  result.entered_mmode = true;
  return result;
}

StepResult Hart::Retire(uint64_t next_pc, uint64_t cycles) {
  StepResult result;
  result.executed = true;
  result.cycles = cycles;
  pc_ = next_pc;
  return result;
}

StepResult Hart::IllegalInstr(const DecodedInstr& instr) {
  return TakeTrap(CauseValue(ExceptionCause::kIllegalInstr), instr.raw);
}

StepResult Hart::Tick() {
  if (!caches_ready_) {
    EnsureCaches();
  }
  // Interrupts are sampled before instruction execution.
  if (const std::optional<uint64_t> interrupt = PendingInterrupt()) {
    return TakeTrap(*interrupt, 0);
  }
  if (waiting_) {
    // WFI parks the hart until an interrupt is pending (enabled or not).
    if ((csrs_.EffectiveMip() & csrs_.mie()) != 0) {
      waiting_ = false;
    } else {
      StepResult result;
      result.waiting = true;
      result.cycles = 1;
      csrs_.AddCycles(1);  // the clock keeps running while parked
      return result;
    }
  }

  // Fetch.
  if (!IsAligned(pc_, 4)) {
    return TakeTrap(CauseValue(ExceptionCause::kInstrAddrMisaligned), pc_);
  }

  // Decoded-instruction cache lookup. A hit replays a previous fetch of this pc: the
  // stamp proves no store touched the instruction bytes or the page tables that
  // translated them (and no PMP write or fence.i happened), and the satp/priv/virt
  // compare proves the translation context is the one the entry was filled under.
  // Fetch translation depends on nothing else: mstatus.SUM/MXR only affect data
  // accesses, and MPRV never applies to fetches.
  if (icache_mask_ != 0) {
    const uint64_t effective_satp = virt_ ? csrs_.vsatp() : csrs_.satp();
    FetchEntry& entry = icache_[(pc_ >> 2) & icache_mask_];
    if (entry.tag == pc_ && entry.stamp == cache_stamp() && entry.satp == effective_satp &&
        entry.priv == static_cast<uint8_t>(priv_) && entry.virt == virt_) {
      ++icache_hits_;
      StepResult result = Execute(entry.instr);
      if (result.aborted) {
        return result;  // segment sync event: nothing retired, no cycles charged
      }
      result.cycles += entry.extra_cycles;  // the original fetch's page-walk cost
      if (!result.trapped) {
        csrs_.AddInstret(1);
      }
      csrs_.AddCycles(result.cycles);
      return result;
    }
  }

  const AccessOutcome fetch = Translate(pc_, 4, AccessType::kFetch, priv_, virt_);
  if (fetch.segment_abort) {
    return AbortSegment();  // fetch walk hit a non-RAM PTE: resolve at the barrier
  }
  if (!fetch.ok) {
    return TakeTrap(CauseValue(fetch.cause), pc_);
  }
  if (segment_active_ && !bus_->IsRam(fetch.paddr, 4)) {
    return AbortSegment();  // MMIO fetch: needs full bus access at the barrier
  }
  uint64_t word = 0;
  if (!bus_->Read(fetch.paddr, 4, &word)) {
    return TakeTrap(CauseValue(ExceptionCause::kInstrAccessFault), pc_);
  }

  const DecodedInstr instr = Decode(static_cast<uint32_t>(word));

  // Fill the cache and mark every line this decode depends on: the instruction bytes
  // (4-byte-aligned, so one 64-byte line) and the PTEs the walk read. The stamp is taken
  // AFTER the translate — the walk's A/D update may itself have stored into a marked
  // page and bumped the code generation. Only RAM-backed fetches are cached; an
  // instruction fetched from a device has no stable bytes to validate.
  if (icache_mask_ != 0 && bus_->IsRam(fetch.paddr, 4)) {
    ++icache_misses_;
    bus_->MarkExecLine(fetch.paddr);
    for (unsigned i = 0; i < fetch.pte_count; ++i) {
      bus_->MarkExecLine(fetch.pte_addrs[i]);
    }
    FetchEntry& entry = icache_[(pc_ >> 2) & icache_mask_];
    entry.tag = pc_;
    entry.stamp = cache_stamp();
    entry.satp = virt_ ? csrs_.vsatp() : csrs_.satp();
    entry.extra_cycles = fetch.extra_cycles;
    entry.instr = instr;
    entry.priv = static_cast<uint8_t>(priv_);
    entry.virt = virt_;
  }

  StepResult result = Execute(instr);
  if (result.aborted) {
    return result;  // segment sync event: nothing retired, no cycles charged
  }
  result.cycles += fetch.extra_cycles;
  if (!result.trapped) {
    csrs_.AddInstret(1);
  }
  csrs_.AddCycles(result.cycles);
  return result;
}

Hart::BatchResult Hart::RunBatch(uint64_t max_steps, uint64_t stop_cycles) {
  if (!caches_ready_) {
    EnsureCaches();
  }
  BatchResult batch;
  const uint64_t mmio_start = bus_->mmio_ops();
  while (true) {
    // Superblock dispatch (DESIGN.md §2f). The gate re-establishes exactly the
    // per-instruction Tick preconditions: not parked, aligned pc, and no pending
    // enabled interrupt. Interrupt state cannot change inside a block — blocks
    // contain no CSR ops, mtime and the interrupt lines only advance between
    // batches, and an MMIO access ends the batch after its instruction — so one
    // sample per dispatch observes everything per-instruction sampling would.
    if (sb_mask_ != 0 && !waiting_ && IsAligned(pc_, 4) && !PendingInterrupt()) {
      SuperblockEntry& sb = sblocks_[(pc_ >> 2) & sb_mask_];
      const uint64_t effective_satp = virt_ ? csrs_.vsatp() : csrs_.satp();
      bool valid = sb.tag == pc_ && sb.stamp == cache_stamp() && sb.satp == effective_satp &&
                   sb.priv == static_cast<uint8_t>(priv_) && sb.virt == virt_;
      if (valid && sb.open_end) {
        // The block was cut short by a cold decode-cache slot. If the continuation
        // has since been decoded, rebuild to extend. A rebuild can only commit a
        // non-empty block, so the entry stays valid either way.
        const uint64_t cont_pc = sb.tag + uint64_t{4} * sb.count;
        const FetchEntry& cont = icache_[(cont_pc >> 2) & icache_mask_];
        if (cont.tag == cont_pc && cont.stamp == sb.stamp && cont.satp == sb.satp &&
            cont.priv == sb.priv && cont.virt == sb.virt) {
          FillSuperblock(&sb);
        }
      }
      if (valid) {
        ++sb_hits_;
      } else {
        ++sb_misses_;
        valid = FillSuperblock(&sb);
      }
      if (valid) {
        // Tier selection (DESIGN.md §2g): count this valid dispatch toward promotion
        // (saturating), lower on the dispatch that reaches the threshold, and run
        // lowered blocks through the threaded executor. Everything below the tier
        // choice is identical — both executors charge the same cycles and spill the
        // same state, so the choice is invisible to simulated behaviour.
        SbRun run;
        ThreadedBlock* tb = nullptr;
        if (!tcode_.empty()) {
          if (sb.hits < threaded_threshold_) {
            ++sb.hits;
          }
          if (sb.hits >= threaded_threshold_) {
            tb = &tcode_[(pc_ >> 2) & sb_mask_];
          }
        }
        if (tb != nullptr) {
          if (!sb.lowered) {
            LowerSuperblock(sb, tb);
            sb.lowered = true;
            ++threaded_promotions_;
          }
          run = ExecuteThreaded(&sb, tb, max_steps - batch.executed, stop_cycles);
        } else {
          run = ExecuteSuperblock(sb, 0, max_steps - batch.executed, stop_cycles);
        }
        batch.executed += run.dispatched;
        batch.retired += run.dispatched - (run.last.trapped ? 1 : 0);
        batch.last = run.last;
        if (run.end_batch || batch.executed >= max_steps ||
            csrs_.mcycle() >= stop_cycles || bus_->mmio_ops() != mmio_start) {
          return batch;
        }
        continue;
      }
      // Cold decode-cache slot at pc_: one per-instruction tick decodes it, after
      // which the next lookup can build the block.
    }
    batch.last = Tick();
    if (batch.last.aborted) {
      return batch;  // quantum sync event: the tick had no effect; barrier re-runs it
    }
    ++batch.executed;
    if (batch.last.executed && !batch.last.trapped) {
      ++batch.retired;
    }
    if (batch.last.trapped || batch.last.waiting || batch.executed >= max_steps ||
        csrs_.mcycle() >= stop_cycles || bus_->mmio_ops() != mmio_start) {
      return batch;
    }
  }
}

bool Hart::FillSuperblock(SuperblockEntry* sb) {
  const uint64_t stamp = cache_stamp();
  const uint64_t effective_satp = virt_ ? csrs_.vsatp() : csrs_.satp();
  const uint8_t priv = static_cast<uint8_t>(priv_);
  uint64_t pc = pc_;
  unsigned count = 0;
  bool open_end = false;
  // Capture straight-line decode-cache entries until a block-ending condition. Every
  // member must pass the full FetchEntry hit condition under one stamp — that single
  // check at build time, plus the stamp compare at dispatch, is what proves the whole
  // block is still exactly what per-instruction fetch would execute. Nothing is
  // written until at least one instruction is captured, so a failed (re)build never
  // damages the existing entry.
  while (count < kMaxSuperblockLen) {
    const FetchEntry& entry = icache_[(pc >> 2) & icache_mask_];
    if (!(entry.tag == pc && entry.stamp == stamp && entry.satp == effective_satp &&
          entry.priv == priv && entry.virt == virt_)) {
      open_end = true;  // cold/stale continuation: retry extension once it warms up
      break;
    }
    const SbClass cls = SuperblockClass(entry.instr.op);
    if (cls == SbClass::kBarrier) {
      break;  // privileged/CSR/fence/AMO ops always run through the Tick path
    }
    BlockInstr& bi = sb->instrs[count];
    bi.instr = entry.instr;
    bi.extra_cycles = entry.extra_cycles;
    bi.cls = cls;
    ++count;
    if (cls == SbClass::kBranch) {
      break;  // a branch is executed in-block as the final instruction
    }
    pc += 4;
    if ((pc & MaskLow(12)) == 0) {
      break;  // the next pc starts a new page and may translate differently
    }
  }
  if (count == 0) {
    return false;
  }
  sb->tag = pc_;
  sb->stamp = stamp;
  sb->satp = effective_satp;
  sb->count = static_cast<uint16_t>(count);
  sb->open_end = open_end;
  sb->priv = priv;
  sb->virt = virt_;
  // Any (re)build demotes: the block re-warms toward the promotion threshold and the
  // old lowering (whose member list may now differ) is never dispatched again.
  sb->hits = 0;
  sb->lowered = false;
  return true;
}

void Hart::BuildFastMemCtx(FastMemCtx* ctx) const {
  // Mirrors Translate(): effective privilege/address space (honoring MPRV), the satp
  // the walk would use, and the SUM/MXR context bytes. All of these are fixed for the
  // life of one block dispatch: they only change via CSR ops, traps, or xRETs, which
  // are barriers (or end the block).
  ctx->built = true;
  const PrivMode priv = DataPriv();
  const bool use_vsatp = DataVirt();
  const uint64_t satp = use_vsatp ? csrs_.vsatp() : csrs_.satp();
  ctx->engaged =
      tlb_mask_ != 0 && priv != PrivMode::kMachine &&
      ExtractBits(satp, SatpBits::kModeHi, SatpBits::kModeLo) == SatpBits::kModeSv39;
  if (!ctx->engaged) {
    return;
  }
  ctx->satp = satp;
  const uint64_t status = use_vsatp ? csrs_.Get(kCsrVsstatus) : csrs_.mstatus();
  const bool sum = Bit(status, MstatusBits::kSum) != 0;
  const bool mxr = Bit(status, MstatusBits::kMxr) != 0;
  ctx->load_ctx = TlbCtx(priv, sum, mxr, AccessType::kLoad);
  ctx->store_ctx = TlbCtx(priv, sum, mxr, AccessType::kStore);
}

Hart::SbRun Hart::ExecuteSuperblock(const SuperblockEntry& sb, unsigned start,
                                    uint64_t steps_left, uint64_t stop_cycles) {
  SbRun run;
  if (start == 0) {
    ++sb_blocks_;  // a deopt continuation is the same block, not a new dispatch
  }
  const uint64_t mmio_start = bus_->mmio_ops();
  const uint64_t base_cost = cost_->instr_base;
  FastMemCtx mem_ctx;
  // Architectural counters and the pc live in locals while inside the block; they are
  // spilled to csrs_/pc_ only at block exits and around slow-path memory ops. The
  // stop checks below compare cycles_base + cycles, which is exactly what mcycle()
  // would read if spilled, so batch boundaries land on the same instruction as the
  // per-instruction loop.
  uint64_t pc = pc_;
  uint64_t cycles = 0;
  uint64_t retired = 0;
  uint64_t cycles_base = csrs_.mcycle();
  uint64_t last_cycles = 0;
  unsigned i = start;

  while (true) {
    const BlockInstr& bi = sb.instrs[i];
    const DecodedInstr& d = bi.instr;
    uint64_t next_pc = pc + 4;
    uint64_t instr_cycles = base_cost + bi.extra_cycles;

    if (bi.cls == SbClass::kSimple) {
      const uint64_t rs1 = gpr_[d.rs1];
      const uint64_t rs2 = gpr_[d.rs2];
      switch (d.op) {
        case Op::kLui:
          set_gpr(d.rd, static_cast<uint64_t>(d.imm));
          break;
        case Op::kAuipc:
          set_gpr(d.rd, pc + static_cast<uint64_t>(d.imm));
          break;
        case Op::kAddi:
          set_gpr(d.rd, rs1 + static_cast<uint64_t>(d.imm));
          break;
        case Op::kSlti:
          set_gpr(d.rd, static_cast<int64_t>(rs1) < d.imm ? 1 : 0);
          break;
        case Op::kSltiu:
          set_gpr(d.rd, rs1 < static_cast<uint64_t>(d.imm) ? 1 : 0);
          break;
        case Op::kXori:
          set_gpr(d.rd, rs1 ^ static_cast<uint64_t>(d.imm));
          break;
        case Op::kOri:
          set_gpr(d.rd, rs1 | static_cast<uint64_t>(d.imm));
          break;
        case Op::kAndi:
          set_gpr(d.rd, rs1 & static_cast<uint64_t>(d.imm));
          break;
        case Op::kSlli:
          set_gpr(d.rd, rs1 << (d.imm & 63));
          break;
        case Op::kSrli:
          set_gpr(d.rd, rs1 >> (d.imm & 63));
          break;
        case Op::kSrai:
          set_gpr(d.rd, static_cast<uint64_t>(static_cast<int64_t>(rs1) >> (d.imm & 63)));
          break;
        case Op::kAdd:
          set_gpr(d.rd, rs1 + rs2);
          break;
        case Op::kSub:
          set_gpr(d.rd, rs1 - rs2);
          break;
        case Op::kSll:
          set_gpr(d.rd, rs1 << (rs2 & 63));
          break;
        case Op::kSlt:
          set_gpr(d.rd, static_cast<int64_t>(rs1) < static_cast<int64_t>(rs2) ? 1 : 0);
          break;
        case Op::kSltu:
          set_gpr(d.rd, rs1 < rs2 ? 1 : 0);
          break;
        case Op::kXor:
          set_gpr(d.rd, rs1 ^ rs2);
          break;
        case Op::kSrl:
          set_gpr(d.rd, rs1 >> (rs2 & 63));
          break;
        case Op::kSra:
          set_gpr(d.rd, static_cast<uint64_t>(static_cast<int64_t>(rs1) >> (rs2 & 63)));
          break;
        case Op::kOr:
          set_gpr(d.rd, rs1 | rs2);
          break;
        case Op::kAnd:
          set_gpr(d.rd, rs1 & rs2);
          break;
        case Op::kAddiw:
          set_gpr(d.rd, SignExtend((rs1 + static_cast<uint64_t>(d.imm)) & 0xFFFFFFFF, 32));
          break;
        case Op::kSlliw:
          set_gpr(d.rd, SignExtend((rs1 << (d.imm & 31)) & 0xFFFFFFFF, 32));
          break;
        case Op::kSrliw:
          set_gpr(d.rd, SignExtend((rs1 & 0xFFFFFFFF) >> (d.imm & 31), 32));
          break;
        case Op::kSraiw:
          set_gpr(d.rd, static_cast<uint64_t>(
                            static_cast<int64_t>(static_cast<int32_t>(rs1)) >> (d.imm & 31)));
          break;
        case Op::kAddw:
          set_gpr(d.rd, SignExtend((rs1 + rs2) & 0xFFFFFFFF, 32));
          break;
        case Op::kSubw:
          set_gpr(d.rd, SignExtend((rs1 - rs2) & 0xFFFFFFFF, 32));
          break;
        case Op::kSllw:
          set_gpr(d.rd, SignExtend((rs1 << (rs2 & 31)) & 0xFFFFFFFF, 32));
          break;
        case Op::kSrlw:
          set_gpr(d.rd, SignExtend((rs1 & 0xFFFFFFFF) >> (rs2 & 31), 32));
          break;
        case Op::kSraw:
          set_gpr(d.rd, static_cast<uint64_t>(
                            static_cast<int64_t>(static_cast<int32_t>(rs1)) >> (rs2 & 31)));
          break;
        case Op::kMul:
          set_gpr(d.rd, rs1 * rs2);
          instr_cycles += cost_->instr_muldiv;
          break;
        case Op::kMulh: {
          const __int128 a = static_cast<int64_t>(rs1);
          const __int128 b = static_cast<int64_t>(rs2);
          set_gpr(d.rd, static_cast<uint64_t>(static_cast<unsigned __int128>(a * b) >> 64));
          instr_cycles += cost_->instr_muldiv;
          break;
        }
        case Op::kMulhsu: {
          const __int128 a = static_cast<int64_t>(rs1);
          const __int128 b = static_cast<__int128>(rs2);
          set_gpr(d.rd, static_cast<uint64_t>(static_cast<unsigned __int128>(a * b) >> 64));
          instr_cycles += cost_->instr_muldiv;
          break;
        }
        case Op::kMulhu: {
          const unsigned __int128 a = rs1;
          const unsigned __int128 b = rs2;
          set_gpr(d.rd, static_cast<uint64_t>((a * b) >> 64));
          instr_cycles += cost_->instr_muldiv;
          break;
        }
        case Op::kDiv: {
          const int64_t a = static_cast<int64_t>(rs1);
          const int64_t b = static_cast<int64_t>(rs2);
          uint64_t q;
          if (b == 0) {
            q = ~uint64_t{0};
          } else if (a == INT64_MIN && b == -1) {
            q = static_cast<uint64_t>(a);
          } else {
            q = static_cast<uint64_t>(a / b);
          }
          set_gpr(d.rd, q);
          instr_cycles += cost_->instr_muldiv;
          break;
        }
        case Op::kDivu:
          set_gpr(d.rd, rs2 == 0 ? ~uint64_t{0} : rs1 / rs2);
          instr_cycles += cost_->instr_muldiv;
          break;
        case Op::kRem: {
          const int64_t a = static_cast<int64_t>(rs1);
          const int64_t b = static_cast<int64_t>(rs2);
          uint64_t r;
          if (b == 0) {
            r = rs1;
          } else if (a == INT64_MIN && b == -1) {
            r = 0;
          } else {
            r = static_cast<uint64_t>(a % b);
          }
          set_gpr(d.rd, r);
          instr_cycles += cost_->instr_muldiv;
          break;
        }
        case Op::kRemu:
          set_gpr(d.rd, rs2 == 0 ? rs1 : rs1 % rs2);
          instr_cycles += cost_->instr_muldiv;
          break;
        case Op::kMulw:
          set_gpr(d.rd, SignExtend((rs1 * rs2) & 0xFFFFFFFF, 32));
          instr_cycles += cost_->instr_muldiv;
          break;
        case Op::kDivw: {
          const int32_t a = static_cast<int32_t>(rs1);
          const int32_t b = static_cast<int32_t>(rs2);
          int32_t q;
          if (b == 0) {
            q = -1;
          } else if (a == INT32_MIN && b == -1) {
            q = a;
          } else {
            q = a / b;
          }
          set_gpr(d.rd, static_cast<uint64_t>(static_cast<int64_t>(q)));
          instr_cycles += cost_->instr_muldiv;
          break;
        }
        case Op::kDivuw: {
          const uint32_t a = static_cast<uint32_t>(rs1);
          const uint32_t b = static_cast<uint32_t>(rs2);
          const uint32_t q = b == 0 ? ~uint32_t{0} : a / b;
          set_gpr(d.rd, SignExtend(q, 32));
          instr_cycles += cost_->instr_muldiv;
          break;
        }
        case Op::kRemw: {
          const int32_t a = static_cast<int32_t>(rs1);
          const int32_t b = static_cast<int32_t>(rs2);
          int32_t r;
          if (b == 0) {
            r = a;
          } else if (a == INT32_MIN && b == -1) {
            r = 0;
          } else {
            r = a % b;
          }
          set_gpr(d.rd, static_cast<uint64_t>(static_cast<int64_t>(r)));
          instr_cycles += cost_->instr_muldiv;
          break;
        }
        case Op::kRemuw: {
          const uint32_t a = static_cast<uint32_t>(rs1);
          const uint32_t b = static_cast<uint32_t>(rs2);
          const uint32_t r = b == 0 ? a : a % b;
          set_gpr(d.rd, SignExtend(r, 32));
          instr_cycles += cost_->instr_muldiv;
          break;
        }
        default:
          break;  // unreachable: FillSuperblock only classifies the ops above kSimple
      }
    } else if (bi.cls == SbClass::kBranch) {
      const uint64_t rs1 = gpr_[d.rs1];
      const uint64_t rs2 = gpr_[d.rs2];
      switch (d.op) {
        case Op::kJal:
          set_gpr(d.rd, next_pc);
          next_pc = pc + static_cast<uint64_t>(d.imm);
          break;
        case Op::kJalr: {
          const uint64_t target = (rs1 + static_cast<uint64_t>(d.imm)) & ~uint64_t{1};
          set_gpr(d.rd, next_pc);
          next_pc = target;
          break;
        }
        case Op::kBeq:
          if (rs1 == rs2) next_pc = pc + static_cast<uint64_t>(d.imm);
          break;
        case Op::kBne:
          if (rs1 != rs2) next_pc = pc + static_cast<uint64_t>(d.imm);
          break;
        case Op::kBlt:
          if (static_cast<int64_t>(rs1) < static_cast<int64_t>(rs2)) {
            next_pc = pc + static_cast<uint64_t>(d.imm);
          }
          break;
        case Op::kBge:
          if (static_cast<int64_t>(rs1) >= static_cast<int64_t>(rs2)) {
            next_pc = pc + static_cast<uint64_t>(d.imm);
          }
          break;
        case Op::kBltu:
          if (rs1 < rs2) next_pc = pc + static_cast<uint64_t>(d.imm);
          break;
        case Op::kBgeu:
          if (rs1 >= rs2) next_pc = pc + static_cast<uint64_t>(d.imm);
          break;
        default:
          break;  // unreachable
      }
    } else {  // SbClass::kMem
      if (!mem_ctx.built) {
        BuildFastMemCtx(&mem_ctx);
      }
      const uint64_t vaddr = gpr_[d.rs1] + static_cast<uint64_t>(d.imm);
      const unsigned size = AccessSizeOf(d.op);
      const bool is_store = IsStoreOp(d.op);
      bool fast = false;
      if (mem_ctx.engaged && IsAligned(vaddr, size)) {
        TlbEntry& slot =
            tlb_[static_cast<unsigned>(is_store ? AccessType::kStore : AccessType::kLoad)]
                [(vaddr >> 12) & tlb_mask_];
        // Full TLB hit condition, re-checked per access (a slow-path store earlier in
        // this very block may have bumped a generation). host_page != nullptr implies
        // pmp_whole_page, and an aligned power-of-two access never leaves the frame,
        // so no per-access PMP scan is needed. A store must additionally see a clean
        // mark byte: writes to exec-/PT-marked pages go through Bus::Write so the
        // dependency generations bump exactly as the slow path would.
        // Segment mode keeps fast loads (with a store-buffer overlay below) but
        // forces every store to the slow path, where it is buffered (DESIGN.md §2i).
        if (slot.vpage == vaddr >> 12 && slot.satp == mem_ctx.satp &&
            slot.ctx == (is_store ? mem_ctx.store_ctx : mem_ctx.load_ctx) &&
            slot.stamp == tlb_stamp() && slot.host_page != nullptr &&
            (!is_store || (*slot.page_mark == 0 && !segment_active_))) {
          ++tlb_hits_;  // parity: the slow path's Translate would count this hit
          ++fastmem_hits_;
          const uint64_t offset = vaddr & MaskLow(12);
          if (is_store) {
            std::memcpy(slot.host_page + offset, &gpr_[d.rs2], size);
            if (reservation_) {
              const uint64_t paddr = slot.paddr_page | offset;
              if (AlignDown(*reservation_, 8) == AlignDown(paddr, 8)) {
                reservation_.reset();
              }
            }
          } else {
            uint64_t value = 0;
            std::memcpy(&value, slot.host_page + offset, size);
            if (segment_active_ && !sbuf_.empty()) {
              OverlayLoad(slot.paddr_page | offset, size, &value);
            }
            switch (d.op) {
              case Op::kLb:
                value = SignExtend(value, 8);
                break;
              case Op::kLh:
                value = SignExtend(value, 16);
                break;
              case Op::kLw:
                value = SignExtend(value, 32);
                break;
              default:
                break;
            }
            set_gpr(d.rd, value);
          }
          instr_cycles += cost_->instr_mem + slot.extra_cycles;
          fast = true;
        }
      }
      if (!fast) {
        // Slow path: spill the exact architectural state (TakeTrap records pc_ into
        // xepc; the bus path may recurse into translation), run the op through the
        // ordinary interpreter helper, and re-base the local counters after.
        ++fastmem_misses_;
        pc_ = pc;
        csrs_.AddInstret(retired);
        csrs_.AddCycles(cycles);
        retired = 0;
        cycles = 0;
        StepResult r = ExecuteLoadStore(d);
        if (r.aborted) {
          // Segment sync event: the op had no effect and is not counted; pc_ and the
          // counters were spilled exactly above, so the barrier re-runs it via Tick.
          run.end_batch = true;
          run.last = r;
          icache_hits_ += run.dispatched;
          sb_instrs_ += run.dispatched;
          return run;
        }
        r.cycles += bi.extra_cycles;  // the member's replayed fetch-walk cost
        if (!r.trapped) {
          csrs_.AddInstret(1);
        }
        csrs_.AddCycles(r.cycles);
        ++run.dispatched;
        ++i;
        if (r.trapped) {
          // pc_ was vectored by TakeTrap; counters are already spilled.
          run.end_batch = true;
          run.last = r;
          icache_hits_ += run.dispatched;
          sb_instrs_ += run.dispatched;
          return run;
        }
        pc = pc_;  // the helper retired to the next sequential pc
        cycles_base = csrs_.mcycle();
        const bool mmio = bus_->mmio_ops() != mmio_start;
        const bool stale = cache_stamp() != sb.stamp;
        if (mmio || stale || i >= sb.count || run.dispatched >= steps_left ||
            cycles_base >= stop_cycles) {
          // `stale` abandons the block (a store invalidated code this block may
          // contain) without ending the batch: RunBatch re-validates and rebuilds.
          run.end_batch = mmio;
          run.last = r;
          icache_hits_ += run.dispatched;
          sb_instrs_ += run.dispatched;
          return run;
        }
        continue;
      }
    }

    pc = next_pc;
    cycles += instr_cycles;
    ++retired;
    ++run.dispatched;
    ++i;
    if (i >= sb.count || run.dispatched >= steps_left ||
        cycles_base + cycles >= stop_cycles) {
      last_cycles = instr_cycles;
      break;
    }
  }

  pc_ = pc;
  csrs_.AddInstret(retired);
  csrs_.AddCycles(cycles);
  icache_hits_ += run.dispatched;
  sb_instrs_ += run.dispatched;
  run.last.executed = true;
  run.last.cycles = last_cycles;
  return run;
}

void Hart::LowerSuperblock(const SuperblockEntry& sb, ThreadedBlock* tb) {
  const void* const* table = nullptr;
  ExecuteThreaded(nullptr, nullptr, 0, 0, &table);  // label addresses live there
  tb->op_count = 0;
  tb->has_mem = false;
  const uint64_t base_cost = cost_->instr_base;
  bool ends_with_branch = false;
  for (unsigned i = 0; i < sb.count; ++i) {
    const BlockInstr& bi = sb.instrs[i];
    const DecodedInstr& d = bi.instr;
    const uint64_t ipc = sb.tag + uint64_t{4} * i;
    ThreadedOp op;
    op.next_pc = ipc + 4;
    op.imm = d.imm;
    op.cycles = static_cast<uint32_t>(base_cost + bi.extra_cycles);
    op.src = static_cast<uint16_t>(i);
    op.a = d.rd;
    op.b = d.rs1;
    op.c = d.rs2;
    LoweredOp kind = LoweredOpFor(d.op);

    if (bi.cls == SbClass::kSimple) {
      switch (d.op) {
        case Op::kAuipc:
          // The block's virtual pc is static, so auipc is a constant at lowering time.
          op.imm = static_cast<int64_t>(ipc + static_cast<uint64_t>(d.imm));
          break;
        case Op::kMul:
        case Op::kMulh:
        case Op::kMulhsu:
        case Op::kMulhu:
        case Op::kDiv:
        case Op::kDivu:
        case Op::kRem:
        case Op::kRemu:
        case Op::kMulw:
        case Op::kDivw:
        case Op::kDivuw:
        case Op::kRemw:
        case Op::kRemuw:
          op.cycles += static_cast<uint32_t>(cost_->instr_muldiv);
          break;
        default:
          break;
      }
      if (d.rd == 0) {
        kind = LoweredOp::kNop;  // x0-targeted ALU ops only charge cycles
      } else if (tb->op_count != 0) {
        // Constant folding: a li/auipc (kConst) followed by ALU-immediate ops that
        // read and write the same register collapses into one kConstChain carrying
        // the final value. Intermediate values are unobservable inside the chain
        // (members are consecutive and each reads only the chain register), and a
        // batch boundary inside a chain deopts to per-member execution, so folding
        // is architecturally invisible.
        ThreadedOp& prev = tb->ops[tb->op_count - 1];
        const LoweredOp pk = static_cast<LoweredOp>(prev.kind);
        if ((pk == LoweredOp::kConst || pk == LoweredOp::kConstChain) && prev.a == d.rd &&
            d.rs1 == d.rd) {
          uint64_t v = static_cast<uint64_t>(prev.imm);
          const uint64_t imm = static_cast<uint64_t>(d.imm);
          bool folded = true;
          switch (d.op) {
            case Op::kAddi:
              v += imm;
              break;
            case Op::kXori:
              v ^= imm;
              break;
            case Op::kOri:
              v |= imm;
              break;
            case Op::kAndi:
              v &= imm;
              break;
            case Op::kSlli:
              v <<= (d.imm & 63);
              break;
            case Op::kSrli:
              v >>= (d.imm & 63);
              break;
            case Op::kSrai:
              v = static_cast<uint64_t>(static_cast<int64_t>(v) >> (d.imm & 63));
              break;
            case Op::kSlti:
              v = static_cast<int64_t>(v) < d.imm ? 1 : 0;
              break;
            case Op::kSltiu:
              v = v < imm ? 1 : 0;
              break;
            case Op::kAddiw:
              v = SignExtend((v + imm) & 0xFFFFFFFF, 32);
              break;
            case Op::kSlliw:
              v = SignExtend((v << (d.imm & 31)) & 0xFFFFFFFF, 32);
              break;
            case Op::kSrliw:
              v = SignExtend((v & 0xFFFFFFFF) >> (d.imm & 31), 32);
              break;
            case Op::kSraiw:
              v = static_cast<uint64_t>(static_cast<int64_t>(static_cast<int32_t>(v)) >>
                                        (d.imm & 31));
              break;
            default:
              folded = false;
              break;
          }
          if (folded) {
            prev.imm = static_cast<int64_t>(v);
            prev.next_pc = ipc + 4;
            prev.cycles += op.cycles;
            prev.count = static_cast<uint8_t>(prev.count + 1);
            prev.kind = static_cast<uint8_t>(LoweredOp::kConstChain);
            prev.handler = table != nullptr ? table[prev.kind] : nullptr;
            prev.uhandler = table != nullptr ? table[kLoweredOpCount + prev.kind] : nullptr;
            continue;
          }
        }
      }
    } else if (bi.cls == SbClass::kBranch) {
      ends_with_branch = true;  // FillSuperblock makes a branch the final member
      switch (d.op) {
        case Op::kJal:
          op.imm = static_cast<int64_t>(ipc + static_cast<uint64_t>(d.imm));
          kind = d.rd == 0 ? LoweredOp::kJ : LoweredOp::kJal;
          break;
        case Op::kJalr:
          kind = d.rd == 0 ? LoweredOp::kJr : LoweredOp::kJalr;
          break;
        default: {
          op.imm = static_cast<int64_t>(ipc + static_cast<uint64_t>(d.imm));  // taken pc
          // Compare+branch fusion: slt/sltu/slti/sltiu whose result feeds an
          // immediately following beqz/bnez fuses into one op (the compare rd is
          // still written — it stays architecturally visible).
          if ((d.op == Op::kBeq || d.op == Op::kBne) && d.rs2 == 0 && tb->op_count != 0) {
            ThreadedOp& prev = tb->ops[tb->op_count - 1];
            const LoweredOp pk = static_cast<LoweredOp>(prev.kind);
            const bool on_zero = d.op == Op::kBeq;
            LoweredOp fused = LoweredOp::kEnd;
            if (prev.count == 1 && prev.a == d.rs1 && prev.a != 0) {
              switch (pk) {
                case LoweredOp::kSlt:
                  fused = on_zero ? LoweredOp::kSltBeqz : LoweredOp::kSltBnez;
                  break;
                case LoweredOp::kSltu:
                  fused = on_zero ? LoweredOp::kSltuBeqz : LoweredOp::kSltuBnez;
                  break;
                case LoweredOp::kSlti:
                  fused = on_zero ? LoweredOp::kSltiBeqz : LoweredOp::kSltiBnez;
                  break;
                case LoweredOp::kSltiu:
                  fused = on_zero ? LoweredOp::kSltiuBeqz : LoweredOp::kSltiuBnez;
                  break;
                default:
                  break;
              }
            }
            if (fused != LoweredOp::kEnd) {
              prev.imm2 = static_cast<int32_t>(prev.imm);  // compare immediate
              prev.imm = op.imm;                           // absolute taken target
              prev.next_pc = ipc + 4;                      // fall-through pc
              prev.cycles += op.cycles;
              prev.count = 2;
              prev.kind = static_cast<uint8_t>(fused);
              prev.handler = table != nullptr ? table[prev.kind] : nullptr;
              prev.uhandler = table != nullptr ? table[kLoweredOpCount + prev.kind] : nullptr;
              continue;
            }
          }
          break;
        }
      }
    } else {  // SbClass::kMem
      op.cycles += static_cast<uint32_t>(cost_->instr_mem);
      tb->has_mem = true;
    }
    op.kind = static_cast<uint8_t>(kind);
    op.handler = table != nullptr ? table[op.kind] : nullptr;
    op.uhandler = table != nullptr ? table[kLoweredOpCount + op.kind] : nullptr;
    tb->ops[tb->op_count++] = op;
  }
  if (!ends_with_branch) {
    // Blocks cut by a barrier, a page boundary, or the length cap end without a
    // branch: a zero-cost sentinel spills and returns after the last real op.
    ThreadedOp end;
    end.kind = static_cast<uint8_t>(LoweredOp::kEnd);
    end.handler = table != nullptr ? table[end.kind] : nullptr;
    end.uhandler = table != nullptr ? table[kLoweredOpCount + end.kind] : nullptr;
    end.cycles = 0;
    end.count = 0;
    end.src = sb.count;
    end.next_pc = sb.tag + uint64_t{4} * sb.count;
    tb->ops[tb->op_count++] = end;
  }
  tb->total_count = 0;
  tb->total_cycles = 0;
  for (unsigned i = 0; i < tb->op_count; ++i) {
    tb->total_count += tb->ops[i].count;
    tb->total_cycles += tb->ops[i].cycles;
  }
}

// The threaded-code executor (DESIGN.md §2g). Dispatch is a computed goto on GCC and
// Clang — each lowered op carries its handler's label address — with a switch on
// LoweredOp::kind as the portable fallback. The budget discipline mirrors
// ExecuteSuperblock exactly: per-instruction post-checks against steps_left and the
// cycle limit, so batch boundaries land on the same instruction as per-instruction
// stepping; fused ops (which retire several instructions atomically) pre-check that
// they fit entirely and otherwise deopt, handing the block tail to the superblock
// tier, which executes one instruction at a time to the exact boundary.
#if defined(__GNUC__) || defined(__clang__)
#define VFM_THREADED_GOTO 1
#else
#define VFM_THREADED_GOTO 0
#endif

Hart::SbRun Hart::ExecuteThreaded(const SuperblockEntry* sb, const ThreadedBlock* tb,
                                  uint64_t steps_left, uint64_t stop_cycles,
                                  const void* const** table_out) {
#if VFM_THREADED_GOTO
  if (table_out != nullptr) {
    // Checked handlers first, then the unchecked set (same X-macro order), so
    // LowerSuperblock indexes checked at [kind] and unchecked at [count + kind].
    static const void* const kTable[] = {
#define VFM_X(name) &&t_##name,
        VFM_LOWERED_OPS(VFM_X)
#undef VFM_X
#define VFM_X(name) &&u_##name,
        VFM_LOWERED_OPS(VFM_X)
#undef VFM_X
    };
    *table_out = kTable;
    return {};
  }
#else
  if (table_out != nullptr) {
    *table_out = nullptr;  // the switch fallback dispatches on ThreadedOp::kind
    return {};
  }
#endif

  SbRun run;
  ++sb_blocks_;
  ++threaded_blocks_;
  const uint64_t mmio_start = bus_->mmio_ops();
  FastMemCtx fm;
  TlbEntry* const tlb_ld = tlb_[static_cast<unsigned>(AccessType::kLoad)].data();
  TlbEntry* const tlb_st = tlb_[static_cast<unsigned>(AccessType::kStore)].data();
  uint64_t* const g = gpr_;
  const ThreadedOp* op = tb->ops;
  // Same spill discipline as ExecuteSuperblock: pc and the counter deltas live in
  // locals, spilled only at exits and around slow-path memory ops. `climit` folds
  // the stop_cycles compare into the local cycle delta.
  uint64_t pc = pc_;        // written only by branch handlers; fall-through exits
                            // recover it from the last op's next_pc
  uint64_t cycles = 0;      // charged since the last spill
  uint64_t dispatched = 0;  // total this dispatch (incl. slow-path mem ops)
  uint64_t spill_base = 0;  // dispatched at the last spill: instret delta at exits
  uint64_t cycles_base = csrs_.mcycle();
  // The dispatch loop makes a single budget compare per op: cycles >= climit, with
  // climit clamped by the remaining step budget. This is exact for the cycle bound
  // and conservative for the step bound — every retired instruction charges at
  // least instr_base >= 1 cycle (constructor gate), so the cycle compare fires
  // at-or-before the step compare would, and an early block exit is invisible:
  // RunBatch re-checks its own bounds and simply re-dispatches. Fused ops
  // pre-check the step budget exactly (VFM_TFIT), so `dispatched` never
  // overshoots steps_left.
  uint64_t climit = stop_cycles > cycles_base ? stop_cycles - cycles_base : 0;
  climit = climit < steps_left ? climit : steps_left;
  // tlb_stamp() is stable across fast-path ops (fast stores never touch marked
  // pages, so no generation it folds can bump); resampled after every slow-path op.
  uint64_t tstamp = tb->has_mem ? tlb_stamp() : 0;

#if VFM_THREADED_GOTO
#define VFM_TGO() goto* op->handler
#else
#define VFM_TGO() goto dispatch
#endif
// Post-execution bookkeeping + budget post-check of a non-terminal op, then dispatch
// of the next op. The post-check discipline matches ExecuteSuperblock's loop tail,
// so batch boundaries land on the same instruction.
#define VFM_TNEXT()          \
  do {                       \
    cycles += op->cycles;    \
    dispatched += op->count; \
    ++op;                    \
    if (cycles >= climit) {  \
      goto exit_fall;        \
    }                        \
    VFM_TGO();               \
  } while (0)
// Terminal ops (branches, fused compare+branches): pc is already redirected. A taken
// branch back to the block's own head chains — keeps executing here — when budget
// remains: fast-path ops cannot invalidate the block or change the interrupt picture
// (the RunBatch gate's argument applies across iterations unchanged), and slow-path
// ops re-validate before resuming.
#define VFM_TFIN()           \
  do {                       \
    cycles += op->cycles;    \
    dispatched += op->count; \
    if (cycles >= climit) {  \
      goto exit_spill;       \
    }                        \
    if (pc == sb->tag) {     \
      op = tb->ops;          \
      VFM_TGO();             \
    }                        \
    goto exit_spill;         \
  } while (0)
// Fused ops retire `n` instructions atomically: they must fit the remaining budget
// entirely, else the superblock tier executes the tail to the exact boundary.
#define VFM_TFIT(n)                                                       \
  do {                                                                    \
    if (dispatched + (n) > steps_left || cycles + op->cycles >= climit) { \
      goto deopt_misfit;                                                  \
    }                                                                     \
  } while (0)
// Load/store with host-pointer fast path baked in: one handler does the address
// add, the TLB probe (full hit condition, as in ExecuteSuperblock), and the host
// memcpy. Any miss — unaligned, not engaged, cold/foreign/stale slot, non-RAM
// frame, marked page — takes the shared interpreter slow path below.
#define VFM_TLOAD(size_, extract_)                                            \
  do {                                                                        \
    if (!fm.built) {                                                          \
      BuildFastMemCtx(&fm);                                                   \
    }                                                                         \
    const uint64_t va = g[op->b] + static_cast<uint64_t>(op->imm);            \
    if (!fm.engaged || !IsAligned(va, size_)) {                               \
      goto slow_mem;                                                          \
    }                                                                         \
    TlbEntry& slot = tlb_ld[(va >> 12) & tlb_mask_];                          \
    if (slot.vpage != va >> 12 || slot.satp != fm.satp ||                     \
        slot.ctx != fm.load_ctx || slot.stamp != tstamp ||                    \
        slot.host_page == nullptr) {                                          \
      goto slow_mem;                                                          \
    }                                                                         \
    ++tlb_hits_;                                                              \
    ++fastmem_hits_;                                                          \
    uint64_t value = 0;                                                       \
    std::memcpy(&value, slot.host_page + (va & MaskLow(12)), size_);          \
    if (segment_active_ && !sbuf_.empty()) {                                  \
      OverlayLoad(slot.paddr_page | (va & MaskLow(12)), size_, &value);       \
    }                                                                         \
    if (op->a != 0) {                                                         \
      g[op->a] = extract_;                                                    \
    }                                                                         \
    cycles += slot.extra_cycles;                                              \
    VFM_TNEXT();                                                              \
  } while (0)
#define VFM_TSTORE(size_)                                                     \
  do {                                                                        \
    if (!fm.built) {                                                          \
      BuildFastMemCtx(&fm);                                                   \
    }                                                                         \
    const uint64_t va = g[op->b] + static_cast<uint64_t>(op->imm);            \
    if (!fm.engaged || !IsAligned(va, size_)) {                               \
      goto slow_mem;                                                          \
    }                                                                         \
    TlbEntry& slot = tlb_st[(va >> 12) & tlb_mask_];                          \
    if (slot.vpage != va >> 12 || slot.satp != fm.satp ||                     \
        slot.ctx != fm.store_ctx || slot.stamp != tstamp ||                   \
        slot.host_page == nullptr || *slot.page_mark != 0 ||                  \
        segment_active_) {                                                    \
      goto slow_mem;                                                          \
    }                                                                         \
    ++tlb_hits_;                                                              \
    ++fastmem_hits_;                                                          \
    const uint64_t offset = va & MaskLow(12);                                 \
    std::memcpy(slot.host_page + offset, &g[op->c], size_);                   \
    if (reservation_) {                                                       \
      const uint64_t paddr = slot.paddr_page | offset;                        \
      if (AlignDown(*reservation_, 8) == AlignDown(paddr, 8)) {               \
        reservation_.reset();                                                 \
      }                                                                       \
    }                                                                         \
    cycles += slot.extra_cycles;                                              \
    VFM_TNEXT();                                                              \
  } while (0)

#if VFM_THREADED_GOTO
  // Unchecked fast iteration (computed-goto builds only): when a pure-ALU block's
  // whole run fits the remaining budget, dispatch through handlers that skip the
  // per-op accounting entirely — the terminal op adds the block totals and
  // re-checks before chaining. Blocks with memory ops always run checked: their
  // TLB-replayed walk cycles vary per dispatch, so the run total is not static.
  if (!tb->has_mem && tb->total_cycles <= climit) {
    goto* op->uhandler;
  }
#endif
  VFM_TGO();

#if !VFM_THREADED_GOTO
dispatch:
  switch (static_cast<LoweredOp>(op->kind)) {
#define VFM_X(name)        \
  case LoweredOp::k##name: \
    goto t_##name;
    VFM_LOWERED_OPS(VFM_X)
#undef VFM_X
  }
#endif

// Checked-mode handlers: per-op accounting and budget post-checks.
#define VFM_TCHECKED 1
#define VFM_TH(name) t_##name
#define VFM_TEND() goto exit_fall
#include "src/sim/hart_threaded.inc"
#undef VFM_TEND
#undef VFM_TH
#undef VFM_TCHECKED

#if VFM_THREADED_GOTO
// Unchecked-mode handlers: no per-op accounting — the whole iteration was
// pre-checked to fit, so only the terminal op touches the counters, adding the
// block totals and deciding whether the next iteration can stay unchecked,
// must run checked (final partial pass to the exact boundary), or exits.
#undef VFM_TNEXT
#undef VFM_TFIN
#undef VFM_TFIT
#define VFM_TCHECKED 0
#define VFM_TH(name) u_##name
#define VFM_TNEXT()       \
  do {                    \
    ++op;                 \
    goto* op->uhandler;   \
  } while (0)
#define VFM_TFIT(n) \
  do {              \
  } while (0)
#define VFM_TFIN()                               \
  do {                                           \
    cycles += tb->total_cycles;                  \
    dispatched += tb->total_count;               \
    if (cycles >= climit) {                      \
      goto exit_spill;                           \
    }                                            \
    if (pc == sb->tag) {                         \
      op = tb->ops;                              \
      if (cycles + tb->total_cycles <= climit) { \
        goto* op->uhandler;                      \
      }                                          \
      goto* op->handler;                         \
    }                                            \
    goto exit_spill;                             \
  } while (0)
#define VFM_TEND()                 \
  do {                             \
    cycles += tb->total_cycles;    \
    dispatched += tb->total_count; \
    goto exit_fall;                \
  } while (0)
#include "src/sim/hart_threaded.inc"
#undef VFM_TEND
#undef VFM_TH
#undef VFM_TCHECKED
#endif  // VFM_THREADED_GOTO

slow_mem: {
  // The exact superblock slow path: spill the architectural state, run the op
  // through the ordinary interpreter helper, re-base the locals, and re-validate
  // the block before resuming threaded dispatch.
  ++fastmem_misses_;
  const BlockInstr& bi = sb->instrs[op->src];
  pc_ = sb->tag + uint64_t{4} * op->src;  // the member's pc, for trap reporting
  csrs_.AddInstret(dispatched - spill_base);
  csrs_.AddCycles(cycles);
  cycles = 0;
  StepResult r = ExecuteLoadStore(bi.instr);
  if (r.aborted) {
    // Segment sync event: the op had no effect and is not counted; pc_ and the
    // counters were spilled exactly above, so the barrier re-runs it via Tick.
    run.end_batch = true;
    run.last = r;
    run.dispatched = dispatched;
    icache_hits_ += dispatched;
    sb_instrs_ += dispatched;
    threaded_instrs_ += dispatched;
    return run;
  }
  r.cycles += bi.extra_cycles;  // the member's replayed fetch-walk cost
  if (!r.trapped) {
    csrs_.AddInstret(1);
  }
  csrs_.AddCycles(r.cycles);
  ++dispatched;
  if (r.trapped) {
    run.end_batch = true;
    run.last = r;
    run.dispatched = dispatched;
    icache_hits_ += dispatched;
    sb_instrs_ += dispatched;
    threaded_instrs_ += dispatched;
    return run;
  }
  spill_base = dispatched;  // the slow op's instret was added above
  cycles_base = csrs_.mcycle();
  tstamp = tlb_stamp();  // a slow-path store may have bumped a folded generation
  const bool mmio = bus_->mmio_ops() != mmio_start;
  const bool stale = cache_stamp() != sb->stamp;
  if (mmio || stale || dispatched >= steps_left || cycles_base >= stop_cycles) {
    if (stale) {
      ++threaded_deopts_;  // the store invalidated code this block may contain
    }
    run.end_batch = mmio;
    run.last = r;
    run.dispatched = dispatched;
    icache_hits_ += dispatched;
    sb_instrs_ += dispatched;
    threaded_instrs_ += dispatched;
    return run;
  }
  climit = stop_cycles - cycles_base;  // > 0: checked just above
  const uint64_t steps_rem = steps_left - dispatched;
  climit = climit < steps_rem ? climit : steps_rem;
  ++op;
  VFM_TGO();
}

deopt_misfit: {
  // A fused op would overshoot the batch budget: spill at the member boundary and
  // let the superblock tier run the tail per-instruction to the exact boundary.
  ++threaded_deopts_;
  pc_ = sb->tag + uint64_t{4} * op->src;  // first member of the fused op
  csrs_.AddInstret(dispatched - spill_base);
  csrs_.AddCycles(cycles);
  icache_hits_ += dispatched;
  sb_instrs_ += dispatched;
  threaded_instrs_ += dispatched;
  const SbRun tail = ExecuteSuperblock(*sb, op->src, steps_left - dispatched, stop_cycles);
  run.dispatched = dispatched + tail.dispatched;
  run.end_batch = tail.end_batch;
  run.last = tail.last;
  return run;
}

exit_fall:
  pc = op[-1].next_pc;  // non-branch exit: resume after the last executed op
exit_spill:
  pc_ = pc;
  csrs_.AddInstret(dispatched - spill_base);
  csrs_.AddCycles(cycles);
  run.dispatched = dispatched;
  icache_hits_ += dispatched;
  sb_instrs_ += dispatched;
  threaded_instrs_ += dispatched;
  run.last.executed = true;
  return run;

#undef VFM_TSTORE
#undef VFM_TLOAD
#undef VFM_TFIT
#undef VFM_TFIN
#undef VFM_TNEXT
#undef VFM_TGO
}

StepResult Hart::Execute(const DecodedInstr& d) {
  const uint64_t rs1 = gpr_[d.rs1];
  const uint64_t rs2 = gpr_[d.rs2];
  const uint64_t next = pc_ + 4;
  const uint64_t base_cost = cost_->instr_base;

  switch (d.op) {
    case Op::kInvalid:
      return IllegalInstr(d);
    case Op::kLui:
      set_gpr(d.rd, static_cast<uint64_t>(d.imm));
      return Retire(next, base_cost);
    case Op::kAuipc:
      set_gpr(d.rd, pc_ + static_cast<uint64_t>(d.imm));
      return Retire(next, base_cost);
    case Op::kJal:
      set_gpr(d.rd, next);
      return Retire(pc_ + static_cast<uint64_t>(d.imm), base_cost);
    case Op::kJalr: {
      const uint64_t target = (rs1 + static_cast<uint64_t>(d.imm)) & ~uint64_t{1};
      set_gpr(d.rd, next);
      return Retire(target, base_cost);
    }
    case Op::kBeq:
      return Retire(rs1 == rs2 ? pc_ + static_cast<uint64_t>(d.imm) : next, base_cost);
    case Op::kBne:
      return Retire(rs1 != rs2 ? pc_ + static_cast<uint64_t>(d.imm) : next, base_cost);
    case Op::kBlt:
      return Retire(static_cast<int64_t>(rs1) < static_cast<int64_t>(rs2)
                        ? pc_ + static_cast<uint64_t>(d.imm)
                        : next,
                    base_cost);
    case Op::kBge:
      return Retire(static_cast<int64_t>(rs1) >= static_cast<int64_t>(rs2)
                        ? pc_ + static_cast<uint64_t>(d.imm)
                        : next,
                    base_cost);
    case Op::kBltu:
      return Retire(rs1 < rs2 ? pc_ + static_cast<uint64_t>(d.imm) : next, base_cost);
    case Op::kBgeu:
      return Retire(rs1 >= rs2 ? pc_ + static_cast<uint64_t>(d.imm) : next, base_cost);

    case Op::kLb:
    case Op::kLh:
    case Op::kLw:
    case Op::kLd:
    case Op::kLbu:
    case Op::kLhu:
    case Op::kLwu:
    case Op::kSb:
    case Op::kSh:
    case Op::kSw:
    case Op::kSd:
      return ExecuteLoadStore(d);

    case Op::kAddi:
      set_gpr(d.rd, rs1 + static_cast<uint64_t>(d.imm));
      return Retire(next, base_cost);
    case Op::kSlti:
      set_gpr(d.rd, static_cast<int64_t>(rs1) < d.imm ? 1 : 0);
      return Retire(next, base_cost);
    case Op::kSltiu:
      set_gpr(d.rd, rs1 < static_cast<uint64_t>(d.imm) ? 1 : 0);
      return Retire(next, base_cost);
    case Op::kXori:
      set_gpr(d.rd, rs1 ^ static_cast<uint64_t>(d.imm));
      return Retire(next, base_cost);
    case Op::kOri:
      set_gpr(d.rd, rs1 | static_cast<uint64_t>(d.imm));
      return Retire(next, base_cost);
    case Op::kAndi:
      set_gpr(d.rd, rs1 & static_cast<uint64_t>(d.imm));
      return Retire(next, base_cost);
    case Op::kSlli:
      set_gpr(d.rd, rs1 << (d.imm & 63));
      return Retire(next, base_cost);
    case Op::kSrli:
      set_gpr(d.rd, rs1 >> (d.imm & 63));
      return Retire(next, base_cost);
    case Op::kSrai:
      set_gpr(d.rd, static_cast<uint64_t>(static_cast<int64_t>(rs1) >> (d.imm & 63)));
      return Retire(next, base_cost);

    case Op::kAdd:
      set_gpr(d.rd, rs1 + rs2);
      return Retire(next, base_cost);
    case Op::kSub:
      set_gpr(d.rd, rs1 - rs2);
      return Retire(next, base_cost);
    case Op::kSll:
      set_gpr(d.rd, rs1 << (rs2 & 63));
      return Retire(next, base_cost);
    case Op::kSlt:
      set_gpr(d.rd, static_cast<int64_t>(rs1) < static_cast<int64_t>(rs2) ? 1 : 0);
      return Retire(next, base_cost);
    case Op::kSltu:
      set_gpr(d.rd, rs1 < rs2 ? 1 : 0);
      return Retire(next, base_cost);
    case Op::kXor:
      set_gpr(d.rd, rs1 ^ rs2);
      return Retire(next, base_cost);
    case Op::kSrl:
      set_gpr(d.rd, rs1 >> (rs2 & 63));
      return Retire(next, base_cost);
    case Op::kSra:
      set_gpr(d.rd, static_cast<uint64_t>(static_cast<int64_t>(rs1) >> (rs2 & 63)));
      return Retire(next, base_cost);
    case Op::kOr:
      set_gpr(d.rd, rs1 | rs2);
      return Retire(next, base_cost);
    case Op::kAnd:
      set_gpr(d.rd, rs1 & rs2);
      return Retire(next, base_cost);

    case Op::kAddiw:
      set_gpr(d.rd, SignExtend((rs1 + static_cast<uint64_t>(d.imm)) & 0xFFFFFFFF, 32));
      return Retire(next, base_cost);
    case Op::kSlliw:
      set_gpr(d.rd, SignExtend((rs1 << (d.imm & 31)) & 0xFFFFFFFF, 32));
      return Retire(next, base_cost);
    case Op::kSrliw:
      set_gpr(d.rd, SignExtend((rs1 & 0xFFFFFFFF) >> (d.imm & 31), 32));
      return Retire(next, base_cost);
    case Op::kSraiw:
      set_gpr(d.rd, static_cast<uint64_t>(
                        static_cast<int64_t>(static_cast<int32_t>(rs1)) >> (d.imm & 31)));
      return Retire(next, base_cost);
    case Op::kAddw:
      set_gpr(d.rd, SignExtend((rs1 + rs2) & 0xFFFFFFFF, 32));
      return Retire(next, base_cost);
    case Op::kSubw:
      set_gpr(d.rd, SignExtend((rs1 - rs2) & 0xFFFFFFFF, 32));
      return Retire(next, base_cost);
    case Op::kSllw:
      set_gpr(d.rd, SignExtend((rs1 << (rs2 & 31)) & 0xFFFFFFFF, 32));
      return Retire(next, base_cost);
    case Op::kSrlw:
      set_gpr(d.rd, SignExtend((rs1 & 0xFFFFFFFF) >> (rs2 & 31), 32));
      return Retire(next, base_cost);
    case Op::kSraw:
      set_gpr(d.rd, static_cast<uint64_t>(
                        static_cast<int64_t>(static_cast<int32_t>(rs1)) >> (rs2 & 31)));
      return Retire(next, base_cost);

    case Op::kMul:
      set_gpr(d.rd, rs1 * rs2);
      return Retire(next, base_cost + cost_->instr_muldiv);
    case Op::kMulh: {
      const __int128 a = static_cast<int64_t>(rs1);
      const __int128 b = static_cast<int64_t>(rs2);
      set_gpr(d.rd, static_cast<uint64_t>(static_cast<unsigned __int128>(a * b) >> 64));
      return Retire(next, base_cost + cost_->instr_muldiv);
    }
    case Op::kMulhsu: {
      const __int128 a = static_cast<int64_t>(rs1);
      const __int128 b = static_cast<__int128>(rs2);
      set_gpr(d.rd, static_cast<uint64_t>(static_cast<unsigned __int128>(a * b) >> 64));
      return Retire(next, base_cost + cost_->instr_muldiv);
    }
    case Op::kMulhu: {
      const unsigned __int128 a = rs1;
      const unsigned __int128 b = rs2;
      set_gpr(d.rd, static_cast<uint64_t>((a * b) >> 64));
      return Retire(next, base_cost + cost_->instr_muldiv);
    }
    case Op::kDiv: {
      const int64_t a = static_cast<int64_t>(rs1);
      const int64_t b = static_cast<int64_t>(rs2);
      uint64_t q;
      if (b == 0) {
        q = ~uint64_t{0};
      } else if (a == INT64_MIN && b == -1) {
        q = static_cast<uint64_t>(a);
      } else {
        q = static_cast<uint64_t>(a / b);
      }
      set_gpr(d.rd, q);
      return Retire(next, base_cost + cost_->instr_muldiv);
    }
    case Op::kDivu:
      set_gpr(d.rd, rs2 == 0 ? ~uint64_t{0} : rs1 / rs2);
      return Retire(next, base_cost + cost_->instr_muldiv);
    case Op::kRem: {
      const int64_t a = static_cast<int64_t>(rs1);
      const int64_t b = static_cast<int64_t>(rs2);
      uint64_t r;
      if (b == 0) {
        r = rs1;
      } else if (a == INT64_MIN && b == -1) {
        r = 0;
      } else {
        r = static_cast<uint64_t>(a % b);
      }
      set_gpr(d.rd, r);
      return Retire(next, base_cost + cost_->instr_muldiv);
    }
    case Op::kRemu:
      set_gpr(d.rd, rs2 == 0 ? rs1 : rs1 % rs2);
      return Retire(next, base_cost + cost_->instr_muldiv);
    case Op::kMulw:
      set_gpr(d.rd, SignExtend((rs1 * rs2) & 0xFFFFFFFF, 32));
      return Retire(next, base_cost + cost_->instr_muldiv);
    case Op::kDivw: {
      const int32_t a = static_cast<int32_t>(rs1);
      const int32_t b = static_cast<int32_t>(rs2);
      int32_t q;
      if (b == 0) {
        q = -1;
      } else if (a == INT32_MIN && b == -1) {
        q = a;
      } else {
        q = a / b;
      }
      set_gpr(d.rd, static_cast<uint64_t>(static_cast<int64_t>(q)));
      return Retire(next, base_cost + cost_->instr_muldiv);
    }
    case Op::kDivuw: {
      const uint32_t a = static_cast<uint32_t>(rs1);
      const uint32_t b = static_cast<uint32_t>(rs2);
      const uint32_t q = b == 0 ? ~uint32_t{0} : a / b;
      set_gpr(d.rd, SignExtend(q, 32));
      return Retire(next, base_cost + cost_->instr_muldiv);
    }
    case Op::kRemw: {
      const int32_t a = static_cast<int32_t>(rs1);
      const int32_t b = static_cast<int32_t>(rs2);
      int32_t r;
      if (b == 0) {
        r = a;
      } else if (a == INT32_MIN && b == -1) {
        r = 0;
      } else {
        r = a % b;
      }
      set_gpr(d.rd, static_cast<uint64_t>(static_cast<int64_t>(r)));
      return Retire(next, base_cost + cost_->instr_muldiv);
    }
    case Op::kRemuw: {
      const uint32_t a = static_cast<uint32_t>(rs1);
      const uint32_t b = static_cast<uint32_t>(rs2);
      const uint32_t r = b == 0 ? a : a % b;
      set_gpr(d.rd, SignExtend(r, 32));
      return Retire(next, base_cost + cost_->instr_muldiv);
    }

    case Op::kFence:
      return Retire(next, base_cost);
    case Op::kFenceI:
      if (segment_active_) {
        // Sync event: fence.i must observe this segment's buffered stores as code,
        // so it re-runs at the barrier after the buffer has been applied to RAM.
        return AbortSegment();
      }
      ++fence_gen_;  // invalidates this hart's decoded-instruction cache
      return Retire(next, base_cost + cost_->tlb_flush / 4);

    case Op::kEcall: {
      ExceptionCause cause = ExceptionCause::kEcallFromU;
      if (priv_ == PrivMode::kMachine) {
        cause = ExceptionCause::kEcallFromM;
      } else if (priv_ == PrivMode::kSupervisor) {
        cause = virt_ ? ExceptionCause::kEcallFromVs : ExceptionCause::kEcallFromS;
      }
      return TakeTrap(CauseValue(cause), 0);
    }
    case Op::kEbreak:
      return TakeTrap(CauseValue(ExceptionCause::kBreakpoint), pc_);

    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc:
    case Op::kCsrrwi:
    case Op::kCsrrsi:
    case Op::kCsrrci:
      return ExecuteCsrOp(d);

    case Op::kSret:
      return ExecuteSret(d);
    case Op::kMret:
      return ExecuteMret(d);
    case Op::kWfi:
      return ExecuteWfi(d);
    case Op::kSfenceVma: {
      if (priv_ == PrivMode::kUser) {
        return IllegalInstr(d);
      }
      if (priv_ == PrivMode::kSupervisor && !virt_ &&
          Bit(csrs_.mstatus(), MstatusBits::kTvm) != 0) {
        return IllegalInstr(d);
      }
      // rs1 selects the per-address form: only the named page is dropped, everything
      // else stays cached. (rs2/ASID is ignored — satp's ASID field is hardwired 0.)
      if (d.rs1 == 0) {
        FlushTlb();
      } else {
        FlushTlbPage(rs1);
      }
      return Retire(next, base_cost + cost_->tlb_flush);
    }
    case Op::kHfenceVvma:
    case Op::kHfenceGvma: {
      if (!csrs_.config().has_h_ext || priv_ == PrivMode::kUser || virt_) {
        return IllegalInstr(d);
      }
      FlushTlb();
      return Retire(next, base_cost + cost_->tlb_flush);
    }

    default:
      return ExecuteAmo(d);
  }
}

StepResult Hart::ExecuteLoadStore(const DecodedInstr& d) {
  const uint64_t vaddr = gpr_[d.rs1] + static_cast<uint64_t>(d.imm);
  const unsigned size = AccessSizeOf(d.op);
  const uint64_t cost = cost_->instr_base + cost_->instr_mem;

  if (IsStoreOp(d.op)) {
    if (!csrs_.config().hw_misaligned && !IsAligned(vaddr, size)) {
      return TakeTrap(CauseValue(ExceptionCause::kStoreAddrMisaligned), vaddr);
    }
    const AccessOutcome out = Translate(vaddr, size, AccessType::kStore, DataPriv(), DataVirt());
    if (out.segment_abort) {
      return AbortSegment();
    }
    if (!out.ok) {
      return TakeTrap(CauseValue(out.cause), vaddr);
    }
    if (segment_active_) {
      if (!bus_->IsRam(out.paddr, size)) {
        return AbortSegment();  // MMIO store: dispatch to the device at the barrier
      }
      SegmentBufferStore(out.paddr, size, gpr_[d.rs2]);
    } else if (!bus_->Write(out.paddr, size, gpr_[d.rs2])) {
      return TakeTrap(CauseValue(ExceptionCause::kStoreAccessFault), vaddr);
    }
    // A store to the reserved address clears the reservation.
    if (reservation_ && AlignDown(*reservation_, 8) == AlignDown(out.paddr, 8)) {
      reservation_.reset();
    }
    return Retire(pc_ + 4, cost + out.extra_cycles);
  }

  if (!csrs_.config().hw_misaligned && !IsAligned(vaddr, size)) {
    return TakeTrap(CauseValue(ExceptionCause::kLoadAddrMisaligned), vaddr);
  }
  const AccessOutcome out = Translate(vaddr, size, AccessType::kLoad, DataPriv(), DataVirt());
  if (out.segment_abort) {
    return AbortSegment();
  }
  if (!out.ok) {
    return TakeTrap(CauseValue(out.cause), vaddr);
  }
  if (segment_active_ && !bus_->IsRam(out.paddr, size)) {
    return AbortSegment();  // MMIO load: read the device at the barrier
  }
  uint64_t value = 0;
  if (!bus_->Read(out.paddr, size, &value)) {
    return TakeTrap(CauseValue(ExceptionCause::kLoadAccessFault), vaddr);
  }
  if (segment_active_ && !sbuf_.empty()) {
    OverlayLoad(out.paddr, size, &value);
  }
  switch (d.op) {
    case Op::kLb:
      value = SignExtend(value, 8);
      break;
    case Op::kLh:
      value = SignExtend(value, 16);
      break;
    case Op::kLw:
      value = SignExtend(value, 32);
      break;
    default:
      break;  // unsigned loads and ld are already zero-extended
  }
  set_gpr(d.rd, value);
  return Retire(pc_ + 4, cost + out.extra_cycles);
}

StepResult Hart::ExecuteAmo(const DecodedInstr& d) {
  if (segment_active_) {
    // All of LR/SC/AMO are segment sync events: an atomic against privately
    // buffered memory could not be observed by the other harts' spinning loads
    // until the barrier, deadlocking guest spinlocks. The barrier re-runs the
    // instruction with full bus access (DESIGN.md §2i).
    return AbortSegment();
  }
  const bool is64 = d.op >= Op::kLrD;
  const unsigned size = is64 ? 8 : 4;
  const uint64_t vaddr = gpr_[d.rs1];
  const uint64_t cost = cost_->instr_base + 2 * cost_->instr_mem;

  if (!IsAligned(vaddr, size)) {
    // AMOs never get misaligned emulation; they fault regardless of hw_misaligned.
    return TakeTrap(CauseValue(d.op == Op::kLrW || d.op == Op::kLrD
                                   ? ExceptionCause::kLoadAddrMisaligned
                                   : ExceptionCause::kStoreAddrMisaligned),
                    vaddr);
  }

  if (d.op == Op::kLrW || d.op == Op::kLrD) {
    const AccessOutcome out = Translate(vaddr, size, AccessType::kLoad, DataPriv(), DataVirt());
    if (!out.ok) {
      return TakeTrap(CauseValue(out.cause), vaddr);
    }
    uint64_t value = 0;
    if (!bus_->Read(out.paddr, size, &value)) {
      return TakeTrap(CauseValue(ExceptionCause::kLoadAccessFault), vaddr);
    }
    set_gpr(d.rd, is64 ? value : SignExtend(value, 32));
    reservation_ = out.paddr;
    return Retire(pc_ + 4, cost + out.extra_cycles);
  }

  const AccessOutcome out = Translate(vaddr, size, AccessType::kStore, DataPriv(), DataVirt());
  if (!out.ok) {
    return TakeTrap(CauseValue(out.cause), vaddr);
  }

  if (d.op == Op::kScW || d.op == Op::kScD) {
    if (reservation_ && *reservation_ == out.paddr) {
      if (!bus_->Write(out.paddr, size, gpr_[d.rs2])) {
        return TakeTrap(CauseValue(ExceptionCause::kStoreAccessFault), vaddr);
      }
      set_gpr(d.rd, 0);
    } else {
      set_gpr(d.rd, 1);
    }
    reservation_.reset();
    return Retire(pc_ + 4, cost + out.extra_cycles);
  }

  uint64_t old = 0;
  if (!bus_->Read(out.paddr, size, &old)) {
    return TakeTrap(CauseValue(ExceptionCause::kLoadAccessFault), vaddr);
  }
  const uint64_t old_val = is64 ? old : SignExtend(old, 32);
  const uint64_t rhs = is64 ? gpr_[d.rs2] : SignExtend(gpr_[d.rs2] & 0xFFFFFFFF, 32);
  uint64_t result = 0;
  switch (d.op) {
    case Op::kAmoswapW:
    case Op::kAmoswapD:
      result = rhs;
      break;
    case Op::kAmoaddW:
    case Op::kAmoaddD:
      result = old_val + rhs;
      break;
    case Op::kAmoxorW:
    case Op::kAmoxorD:
      result = old_val ^ rhs;
      break;
    case Op::kAmoandW:
    case Op::kAmoandD:
      result = old_val & rhs;
      break;
    case Op::kAmoorW:
    case Op::kAmoorD:
      result = old_val | rhs;
      break;
    case Op::kAmominW:
    case Op::kAmominD:
      result = static_cast<int64_t>(old_val) < static_cast<int64_t>(rhs) ? old_val : rhs;
      break;
    case Op::kAmomaxW:
    case Op::kAmomaxD:
      result = static_cast<int64_t>(old_val) > static_cast<int64_t>(rhs) ? old_val : rhs;
      break;
    case Op::kAmominuW:
    case Op::kAmominuD: {
      const uint64_t a = is64 ? old_val : old_val & 0xFFFFFFFF;
      const uint64_t b = is64 ? rhs : rhs & 0xFFFFFFFF;
      result = a < b ? old_val : rhs;
      break;
    }
    case Op::kAmomaxuW:
    case Op::kAmomaxuD: {
      const uint64_t a = is64 ? old_val : old_val & 0xFFFFFFFF;
      const uint64_t b = is64 ? rhs : rhs & 0xFFFFFFFF;
      result = a > b ? old_val : rhs;
      break;
    }
    default:
      return IllegalInstr(d);
  }
  if (!bus_->Write(out.paddr, size, result)) {
    return TakeTrap(CauseValue(ExceptionCause::kStoreAccessFault), vaddr);
  }
  set_gpr(d.rd, old_val);
  return Retire(pc_ + 4, cost + out.extra_cycles);
}

StepResult Hart::ExecuteCsrOp(const DecodedInstr& d) {
  const bool is_imm = d.op == Op::kCsrrwi || d.op == Op::kCsrrsi || d.op == Op::kCsrrci;
  const uint64_t operand = is_imm ? d.zimm : gpr_[d.rs1];
  const bool is_write_op = d.op == Op::kCsrrw || d.op == Op::kCsrrwi;
  const bool write_needed = is_write_op || d.rs1 != 0 || (is_imm && d.zimm != 0);
  const bool read_needed = !is_write_op || d.rd != 0;

  // The `time` CSR (and cycle/instret in some configs) requires the time source; reads
  // of an absent time CSR raise illegal instruction so firmware can emulate them —
  // this is one of the paper's five dominant trap causes (§3.4).
  uint64_t old_value = 0;
  if (read_needed || !is_write_op) {
    if (!csrs_.ReadCsr(d.csr, priv_, virt_, &old_value)) {
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
    if (!csrs_.WriteCsr(d.csr, priv_, virt_, new_value)) {
      return IllegalInstr(d);
    }
  } else {
    // Read-only access still requires the CSR to be readable (checked above).
  }
  set_gpr(d.rd, old_value);
  return Retire(pc_ + 4, cost_->instr_base + cost_->hal_csr_access);
}

StepResult Hart::ExecuteMret(const DecodedInstr& d) {
  if (priv_ != PrivMode::kMachine) {
    return IllegalInstr(d);
  }
  uint64_t mstatus = csrs_.mstatus();
  const uint64_t mpp = ExtractBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo);
  const PrivMode target = static_cast<PrivMode>(mpp);
  mstatus = SetBit(mstatus, MstatusBits::kMie, Bit(mstatus, MstatusBits::kMpie));
  mstatus = SetBit(mstatus, MstatusBits::kMpie, 1);
  mstatus = InsertBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo,
                       static_cast<uint64_t>(PrivMode::kUser));
  bool new_virt = false;
  if (csrs_.config().has_h_ext && target != PrivMode::kMachine) {
    new_virt = Bit(mstatus, MstatusBits::kMpv) != 0;
  }
  mstatus = SetBit(mstatus, MstatusBits::kMpv, 0);
  if (target != PrivMode::kMachine) {
    mstatus = SetBit(mstatus, MstatusBits::kMprv, 0);
  }
  csrs_.set_mstatus(mstatus);
  priv_ = target;
  virt_ = new_virt;
  return Retire(csrs_.mepc(), cost_->trap_entry);
}

StepResult Hart::ExecuteSret(const DecodedInstr& d) {
  if (priv_ == PrivMode::kUser) {
    return IllegalInstr(d);
  }
  if (priv_ == PrivMode::kSupervisor && !virt_ &&
      Bit(csrs_.mstatus(), MstatusBits::kTsr) != 0) {
    return IllegalInstr(d);
  }
  if (virt_) {
    if (Bit(csrs_.hstatus(), HstatusBits::kVtsr) != 0) {
      return IllegalInstr(d);
    }
    // sret inside a virtualized supervisor uses the vs* bank.
    uint64_t vsstatus = csrs_.Get(kCsrVsstatus);
    const bool spp = Bit(vsstatus, MstatusBits::kSpp) != 0;
    vsstatus = SetBit(vsstatus, MstatusBits::kSie, Bit(vsstatus, MstatusBits::kSpie));
    vsstatus = SetBit(vsstatus, MstatusBits::kSpie, 1);
    vsstatus = SetBit(vsstatus, MstatusBits::kSpp, 0);
    csrs_.Set(kCsrVsstatus, vsstatus);
    priv_ = spp ? PrivMode::kSupervisor : PrivMode::kUser;
    return Retire(csrs_.Get(kCsrVsepc), cost_->trap_entry);
  }
  uint64_t mstatus = csrs_.mstatus();
  const bool spp = Bit(mstatus, MstatusBits::kSpp) != 0;
  mstatus = SetBit(mstatus, MstatusBits::kSie, Bit(mstatus, MstatusBits::kSpie));
  mstatus = SetBit(mstatus, MstatusBits::kSpie, 1);
  mstatus = SetBit(mstatus, MstatusBits::kSpp, 0);
  const PrivMode target = spp ? PrivMode::kSupervisor : PrivMode::kUser;
  if (target != PrivMode::kMachine) {
    mstatus = SetBit(mstatus, MstatusBits::kMprv, 0);
  }
  csrs_.set_mstatus(mstatus);
  bool new_virt = false;
  if (csrs_.config().has_h_ext) {
    uint64_t hstatus = csrs_.Get(kCsrHstatus);
    new_virt = Bit(hstatus, HstatusBits::kSpv) != 0;
    hstatus = SetBit(hstatus, HstatusBits::kSpv, 0);
    csrs_.Set(kCsrHstatus, hstatus);
  }
  priv_ = target;
  virt_ = new_virt;
  return Retire(csrs_.sepc(), cost_->trap_entry);
}

StepResult Hart::ExecuteWfi(const DecodedInstr& d) {
  if (priv_ == PrivMode::kUser) {
    return IllegalInstr(d);  // with S-mode implemented, WFI is not available in U-mode
  }
  if (priv_ == PrivMode::kSupervisor && !virt_ &&
      Bit(csrs_.mstatus(), MstatusBits::kTw) != 0) {
    return IllegalInstr(d);
  }
  if (virt_ && Bit(csrs_.hstatus(), HstatusBits::kVtw) != 0) {
    return IllegalInstr(d);
  }
  waiting_ = true;
  return Retire(pc_ + 4, cost_->instr_base);
}

// -- Quantum-mode segment machinery (DESIGN.md §2i). ---------------------------------

StepResult Hart::AbortSegment() {
  sync_pending_ = true;
  StepResult result;
  result.aborted = true;
  return result;
}

void Hart::SegmentBufferStore(uint64_t paddr, unsigned size, uint64_t value) {
  // Split the store over its (at most two) 8-byte granules. A granule lies entirely
  // inside RAM whenever any of its bytes does: RAM regions are page-aligned and
  // page-sized, so an 8-byte-aligned granule never straddles a region edge.
  unsigned done = 0;
  while (done < size) {
    const uint64_t byte_addr = paddr + done;
    const uint64_t gaddr = byte_addr & ~uint64_t{7};
    const auto [it, fresh] = sbuf_index_.try_emplace(gaddr, static_cast<uint32_t>(sbuf_.size()));
    if (fresh) {
      StoreGranule granule;
      granule.addr = gaddr;
      // Initialize from RAM: sound because RAM is frozen for the whole segment
      // (every hart buffers its stores; fast-path stores are disabled).
      bus_->Read(gaddr, 8, &granule.data);
      sbuf_.push_back(granule);
    }
    StoreGranule& granule = sbuf_[it->second];
    const unsigned offset = static_cast<unsigned>(byte_addr - gaddr);
    const unsigned count = std::min(size - done, 8 - offset);
    for (unsigned k = 0; k < count; ++k) {
      const uint64_t byte = (value >> (8 * (done + k))) & 0xFF;
      granule.data =
          (granule.data & ~(uint64_t{0xFF} << (8 * (offset + k)))) | (byte << (8 * (offset + k)));
      granule.dirty |= static_cast<uint8_t>(1u << (offset + k));
    }
    done += count;
  }
}

void Hart::OverlayLoad(uint64_t paddr, unsigned size, uint64_t* value) const {
  unsigned done = 0;
  while (done < size) {
    const uint64_t byte_addr = paddr + done;
    const uint64_t gaddr = byte_addr & ~uint64_t{7};
    const unsigned offset = static_cast<unsigned>(byte_addr - gaddr);
    const unsigned count = std::min(size - done, 8 - offset);
    const auto it = sbuf_index_.find(gaddr);
    if (it != sbuf_index_.end()) {
      const StoreGranule& granule = sbuf_[it->second];
      for (unsigned k = 0; k < count; ++k) {
        if ((granule.dirty & (1u << (offset + k))) != 0) {
          const uint64_t byte = (granule.data >> (8 * (offset + k))) & 0xFF;
          *value =
              (*value & ~(uint64_t{0xFF} << (8 * (done + k)))) | (byte << (8 * (done + k)));
        }
      }
    }
    done += count;
  }
}

void Hart::ApplySegmentStores() {
  for (const StoreGranule& granule : sbuf_) {
    if (granule.dirty == 0xFF) {
      bus_->Write(granule.addr, 8, granule.data);
      continue;
    }
    // Flush each contiguous dirty run as one write (Bus::Write takes any size <= 8
    // on RAM), so mark checks and generation bumps fire exactly as serial stores.
    unsigned i = 0;
    while (i < 8) {
      if ((granule.dirty & (1u << i)) == 0) {
        ++i;
        continue;
      }
      unsigned j = i;
      while (j < 8 && (granule.dirty & (1u << j)) != 0) {
        ++j;
      }
      bus_->Write(granule.addr + i, j - i, granule.data >> (8 * i));
      i = j;
    }
  }
  sbuf_.clear();
  sbuf_index_.clear();
}

bool Hart::SegmentPt::ReadPte(uint64_t pte_addr, uint64_t* pte) {
  if (!hart_->bus_->IsRam(pte_addr, 8)) {
    return false;  // a PTE outside RAM cannot be overlaid: abort to the barrier
  }
  hart_->bus_->Read(pte_addr, 8, pte);
  if (!hart_->sbuf_.empty()) {
    hart_->OverlayLoad(pte_addr, 8, pte);
  }
  return true;
}

bool Hart::SegmentPt::WritePte(uint64_t pte_addr, uint64_t pte) {
  if (!hart_->bus_->IsRam(pte_addr, 8)) {
    return false;
  }
  hart_->SegmentBufferStore(pte_addr, 8, pte);
  return true;
}

void Hart::SaveState(StateWriter& writer) const {
  writer.BeginSection(StateTag("HART"), 1);
  writer.U32(index_);
  for (unsigned i = 0; i < 32; ++i) {
    writer.U64(gpr_[i]);
  }
  writer.U64(pc_);
  writer.U8(static_cast<uint8_t>(priv_));
  writer.Bool(virt_);
  writer.Bool(waiting_);
  writer.Bool(reservation_.has_value());
  writer.U64(reservation_.value_or(0));
  writer.U64(traps_taken_);
  csrs_.SaveState(writer);
  writer.EndSection();
}

bool Hart::LoadState(StateReader& reader) {
  reader.BeginSection(StateTag("HART"));
  const uint32_t index = reader.U32();
  if (reader.ok() && index != index_) {
    reader.Fail("hart index mismatch");
  }
  for (unsigned i = 0; i < 32; ++i) {
    gpr_[i] = reader.U64();
  }
  pc_ = reader.U64();
  priv_ = static_cast<PrivMode>(reader.U8());
  virt_ = reader.Bool();
  waiting_ = reader.Bool();
  const bool has_reservation = reader.Bool();
  const uint64_t reservation = reader.U64();
  reservation_ = has_reservation ? std::optional<uint64_t>(reservation) : std::nullopt;
  traps_taken_ = reader.U64();
  if (!csrs_.LoadState(reader)) {
    return false;
  }
  reader.EndSection();
  if (!reader.ok()) {
    return false;
  }
  // Translation caches are derived state: rather than serialize them, advance the
  // generation counters so every cached entry's stamp mismatches. All stamp
  // components are monotonic, so a +1 on each local counter strictly exceeds any
  // previously recorded stamp — no stale decode/TLB/superblock/threaded entry can
  // validate again, and they rebuild (and re-mark dependency pages) on demand.
  ++fence_gen_;
  ++tlb_gen_;
  return true;
}

}  // namespace vfm
