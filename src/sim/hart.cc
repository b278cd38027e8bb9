#include "src/sim/hart.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "src/common/bits.h"
#include "src/common/check.h"
#include "src/common/log.h"

namespace vfm {

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
  if (tuning.tlb_entries != 0) {
    pending_tlb_entries_ = RoundUpPow2(tuning.tlb_entries);
  }
  // The superblock cache builds from decode-cache entries, so it is only allocated
  // when the decode cache exists.
  if (pending_icache_entries_ != 0 && tuning.superblock_entries != 0) {
    pending_sb_entries_ = RoundUpPow2(tuning.superblock_entries);
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
    // Capped so that SuperblockEntry::first_op fits 32 bits: only a cache of more
    // than 66M entries reaches the cap, and a smaller arena just starts over sooner.
    ops_ = MappedArray<BlockOp>(
        std::min<uint64_t>(pending_sb_entries_ * (kMaxSuperblockLen + 1), UINT32_MAX));
    sb_mask_ = pending_sb_entries_ - 1;
    pending_sb_entries_ = 0;
  }
}

uint64_t Hart::cache_stamp() const {
  return bus_->code_generation() + csrs_.pmp().epoch() + fence_gen_;
}

uint64_t Hart::tlb_stamp() const {
  return bus_->pt_generation() + csrs_.pmp().epoch() + tlb_gen_;
}

uint64_t Hart::window_stamp() const { return csrs_.pmp().epoch(); }

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
  // The TLB engages only where TranslateSv39 would actually walk. Identity accesses
  // (bare satp, or M-mode) fill no entry: the block executor serves them through PMP
  // windows instead (DESIGN.md §2d, §2f).
  const bool engaged =
      cacheable && tlb_mask_ != 0 && !IdentityTranslation(params.satp, params.priv);
  const uint64_t vpage = vaddr >> 12;
  TlbEntry* slot = nullptr;
  if (engaged) {
    slot = &tlb_[static_cast<unsigned>(type)][vpage & tlb_mask_];
    // A hit replays a previous successful walk for this access type: the satp value
    // and context byte prove the walk inputs match, and the stamp proves no store
    // touched the page tables it read (no explicit flush happened, and the PMP holds
    // the contents the walk was checked under).
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
      // walk checks are covered by the PMP epoch folded into the stamp.
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
      // Host-pointer fast path: only whole-page-permitted frames of RAM qualify,
      // so a superblock access through host_page needs no per-access PMP or routing.
      // The frame must also be one mark slot: with a RAM base that is not 4 KiB
      // aligned, it would straddle two.
      Ram& ram = bus_->ram();
      const uint64_t offset = slot->paddr_page - ram.base();
      slot->host_page = nullptr;
      if (slot->pmp_whole_page && ram.Contains(slot->paddr_page, uint64_t{1} << 12) &&
          (offset & MaskLow(12)) == 0) {
        slot->host_page = ram.data() + offset;
        slot->page_mark = ram.page_marks() + (offset >> 12);
        slot->page_lines = ram.exec_lines() + (offset >> 12);
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

Hart::MemResult Hart::AccessMemoryAs(AccessType type, PrivMode priv, uint64_t satp,
                                     uint64_t vaddr, unsigned size, uint64_t* value,
                                     const PmpBank* pmp_override) {
  TranslateParams params;
  params.satp = satp;
  params.priv = priv;
  const uint64_t mstatus = csrs_.mstatus();
  params.sum = Bit(mstatus, MstatusBits::kSum) != 0;
  params.mxr = Bit(mstatus, MstatusBits::kMxr) != 0;
  // With a PMP override (the monitor's MPRV emulation passes the firmware's virtual
  // bank), the TLB is bypassed entirely: its stamp tracks only the physical bank's
  // epoch, so entries can neither validate against nor be filled under a foreign
  // bank. Overrideless calls share entries with the interpreter path.
  const AccessOutcome out =
      TranslateWith(pmp_override != nullptr ? *pmp_override : csrs_.pmp(),
                    /*cacheable=*/pmp_override == nullptr, params, vaddr, size, type);
  MemResult result;
  if (!out.ok) {
    result.ok = false;
    result.cause = out.cause;
  } else if (type == AccessType::kStore ? !bus_->Write(out.paddr, size, *value)
                                        : !bus_->Read(out.paddr, size, value)) {
    result.ok = false;
    result.cause = type == AccessType::kStore ? ExceptionCause::kStoreAccessFault
                                              : ExceptionCause::kLoadAccessFault;
  }
  return result;
}

StepResult Hart::TakeTrap(uint64_t cause, uint64_t tval) {
  StepResult result;
  result.executed = true;
  result.trapped = true;
  result.trap_cause = cause;
  result.cycles = cost_->trap_entry;
  ++traps_taken_;
  waiting_ = false;
  PrivState state{pc_, priv_, virt_};
  result.trap_target = EnterTrap(csrs_, &state, cause, tval);
  result.entered_mmode = result.trap_target == PrivMode::kMachine;
  pc_ = state.pc;
  priv_ = state.priv;
  virt_ = state.virt;
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
  // translated them (no fence.i happened, and the PMP holds the contents the fetch
  // was checked under), and the satp/priv/virt compare proves the translation
  // context is the one the entry was filled under.
  // Fetch translation depends on nothing else: mstatus.SUM/MXR only affect data
  // accesses, and MPRV never applies to fetches.
  if (icache_mask_ != 0) {
    const uint64_t effective_satp = virt_ ? csrs_.vsatp() : csrs_.satp();
    FetchEntry& entry = icache_[CacheSlot(pc_) & icache_mask_];
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
    FetchEntry& entry = icache_[CacheSlot(pc_) & icache_mask_];
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
      SuperblockEntry& sb = sblocks_[CacheSlot(pc_) & sb_mask_];
      const uint64_t effective_satp = virt_ ? csrs_.vsatp() : csrs_.satp();
      const uint64_t stamp = cache_stamp();
      bool valid = sb.tag == pc_ && sb.epoch == BlockEpoch(stamp) &&
                   arena_stamp_ == MonotonicPart(stamp) && sb.satp == effective_satp &&
                   sb.priv == static_cast<uint8_t>(priv_) && sb.virt == virt_;
      if (valid && sb.open_end) {
        // The block was cut short by a cold decode-cache slot. If the continuation
        // has since been decoded, rebuild to extend. A rebuild that starts the
        // arena over rebuilds this block too, and one that fails touches nothing,
        // so the entry stays valid either way.
        const uint64_t cont_pc = sb.tag + uint64_t{4} * sb.count;
        const FetchEntry& cont = icache_[CacheSlot(cont_pc) & icache_mask_];
        if (cont.tag == cont_pc && cont.stamp == stamp && cont.satp == sb.satp &&
            cont.priv == sb.priv && cont.virt == sb.virt) {
          FillSuperblock(&sb);
        }
      }
      // A barrier head's zero-op entry, found or just recorded, counts as neither
      // hit nor miss (see superblock_hits()).
      if (!valid) {
        valid = FillSuperblock(&sb);
        if (!valid || sb.count != 0) {
          ++sb_misses_;
        }
      } else if (sb.count != 0) {
        ++sb_hits_;
      }
      if (valid && sb.count != 0) {
        const SbRun run = ExecuteBlock(&sb, max_steps - batch.executed, stop_cycles);
        batch.executed += run.dispatched;
        batch.retired += run.dispatched - (run.last.trapped ? 1 : 0);
        batch.last = run.last;
        if (run.end_batch || batch.executed >= max_steps ||
            csrs_.mcycle() >= stop_cycles || bus_->mmio_ops() != mmio_start) {
          return batch;
        }
        if (!run.misfit) {
          continue;
        }
      }
      // One per-instruction tick. After a misfit it runs the fused op's first
      // member and stops at the exact per-instruction boundary; at a cold
      // decode-cache slot it decodes pc_, so the next lookup can build the block;
      // at a zero-op entry it runs the barrier.
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
  // Every member must pass the full FetchEntry hit condition under one stamp — that
  // single check at build time, plus the stamp compare at dispatch, is what proves
  // the whole block is still exactly what per-instruction fetch would execute.
  const auto member = [&](uint64_t pc) -> const FetchEntry* {
    const FetchEntry& entry = icache_[CacheSlot(pc) & icache_mask_];
    const bool hit = entry.tag == pc && entry.stamp == stamp &&
                     entry.satp == effective_satp && entry.priv == priv && entry.virt == virt_;
    return hit ? &entry : nullptr;
  };
  // Checking the first member before the arena is touched keeps a failed (re)build
  // from costing the existing blocks their ops; once it passes, the block has at
  // least that member, or is a barrier head's zero-op entry.
  const FetchEntry* const head = member(pc_);
  if (head == nullptr) {
    return false;
  }
  const bool barrier_head = SuperblockClass(head->instr.op) == SbClass::kBarrier;
  // A zero-op entry takes no ops, so only a moved monotonic part restarts the arena
  // for it.
  if (MonotonicPart(stamp) != arena_stamp_ ||
      (!barrier_head && arena_fill_ + kMaxSuperblockLen + 1 > ops_.size())) {
    arena_fill_ = 0;
    ++arena_epoch_;
    arena_stamp_ = MonotonicPart(stamp);
  }
  sb->tag = pc_;
  sb->satp = effective_satp;
  sb->epoch = BlockEpoch(stamp);
  sb->priv = priv;
  sb->virt = virt_;
  if (barrier_head) {
    sb->first_op = 0;
    sb->count = 0;
    sb->open_end = false;
    return true;
  }
  BlockOp* const ops = &ops_[arena_fill_];
  const void* const* table = nullptr;
  ExecuteBlock(nullptr, 0, 0, &table);  // the handler label addresses live there
  uint64_t pc = pc_;
  unsigned count = 0;  // members captured
  unsigned n = 0;      // ops written
  bool open_end = false;
  bool ends_with_branch = false;
  // Capture straight-line decode-cache entries until a block-ending condition.
  while (count < kMaxSuperblockLen) {
    const FetchEntry* const entry = member(pc);
    if (entry == nullptr) {
      open_end = true;  // cold/stale continuation: retry extension once it warms up
      break;
    }
    const SbClass cls = SuperblockClass(entry->instr.op);
    if (cls == SbClass::kBarrier) {
      break;  // privileged/CSR/fence/AMO ops always run through the Tick path
    }
    n = LowerInstr(ops, n, entry->instr, pc, entry->extra_cycles, table);
    ++count;
    if (cls == SbClass::kBranch) {
      ends_with_branch = true;  // a branch is the block's final op
      break;
    }
    pc += 4;
    if ((pc & MaskLow(12)) == 0) {
      break;  // the next pc starts a new page and may translate differently
    }
  }
  if (!ends_with_branch) {
    // Blocks cut by a barrier, a page boundary, or the length cap end without a
    // branch: a sentinel spills and returns after the last real op.
    ops[n].handler = table[static_cast<unsigned>(LoweredOp::kEnd)];
    ops[n].kind = LoweredOp::kEnd;
    ++n;
  }
  sb->first_op = static_cast<uint32_t>(arena_fill_);
  sb->count = static_cast<uint8_t>(count);
  sb->open_end = open_end;
  arena_fill_ += n;
  // The restart rule above keeps every block inside the arena. A MappedArray is
  // invisible to ASan, so this is the only guard on that bound.
  VFM_DCHECK(arena_fill_ <= ops_.size());
  ++sb_builds_;
  return true;
}

unsigned Hart::LowerInstr(BlockOp* ops, unsigned n, const DecodedInstr& d, uint64_t ipc,
                          uint64_t fetch_cycles, const void* const* table) const {
  BlockOp* const prev = n != 0 ? &ops[n - 1] : nullptr;
  const uint64_t target = ipc + static_cast<uint64_t>(d.imm);  // pc-relative value
  LoweredOp kind = LoweredOpFor(d.op);
  int64_t imm = d.imm;
  uint64_t cycles = AluCost(d.op) + fetch_cycles;
  // Merges this member into `prev`, which then retires one more instruction as
  // `merged`. Members are consecutive, so prev's intermediate state is unobservable,
  // and an op that cannot fit the batch budget spills before its first member.
  const auto merge = [&](LoweredOp merged) {
    prev->next_pc = ipc + 4;
    prev->cycles += static_cast<uint32_t>(cycles);
    ++prev->count;
    prev->kind = merged;
    prev->handler = table[static_cast<unsigned>(merged)];
    return n;
  };

  switch (SuperblockClass(d.op)) {
    case SbClass::kSimple:
      if (d.op == Op::kAuipc) {
        imm = static_cast<int64_t>(target);  // the block's pc is static
      }
      if (d.rd == 0) {
        kind = LoweredOp::kNop;  // x0-targeted ALU ops only charge cycles
      } else if (prev != nullptr &&
                 (prev->kind == LoweredOp::kConst || prev->kind == LoweredOp::kConstChain) &&
                 prev->a == d.rd && d.rs1 == d.rd && IsAluImm(d.op)) {
        // Constant folding: a li/auipc followed by ALU-immediate ops that read and
        // write the same register collapses into one kConstChain holding the result.
        prev->imm = static_cast<int64_t>(
            AluResult(d.op, static_cast<uint64_t>(prev->imm), static_cast<uint64_t>(d.imm)));
        return merge(LoweredOp::kConstChain);
      }
      break;
    case SbClass::kBranch:
      if (d.op == Op::kJal) {
        imm = static_cast<int64_t>(target);
        kind = d.rd == 0 ? LoweredOp::kJ : LoweredOp::kJal;
      } else if (d.op == Op::kJalr) {
        kind = d.rd == 0 ? LoweredOp::kJr : LoweredOp::kJalr;
      } else {
        imm = static_cast<int64_t>(target);  // taken pc
        // Compare+branch fusion: slt/sltu/slti/sltiu whose result feeds an
        // immediately following beqz/bnez (the compare rd is still written).
        if ((d.op == Op::kBeq || d.op == Op::kBne) && d.rs2 == 0 && prev != nullptr &&
            prev->count == 1 && prev->a == d.rs1 && prev->a != 0) {
          const bool on_zero = d.op == Op::kBeq;
          LoweredOp fused = LoweredOp::kEnd;
          switch (prev->kind) {
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
          if (fused != LoweredOp::kEnd) {
            prev->imm2 = static_cast<int32_t>(prev->imm);  // compare immediate
            prev->imm = imm;                               // absolute taken target
            return merge(fused);
          }
        }
      }
      break;
    case SbClass::kMem:
      cycles += cost_->instr_mem;
      break;
    case SbClass::kBarrier:
      break;  // never lowered: FillSuperblock ends the block before a barrier
  }
  BlockOp& op = ops[n];
  op.handler = table[static_cast<unsigned>(kind)];
  op.next_pc = ipc + 4;
  op.imm = imm;
  op.cycles = static_cast<uint32_t>(cycles);
  op.imm2 = 0;
  op.op = d.op;
  op.a = d.rd;
  op.b = d.rs1;
  op.c = d.rs2;
  op.count = 1;
  op.kind = kind;
  return n + 1;
}

void Hart::BuildFastMemCtx(FastMemCtx* ctx) {
  // Mirrors Translate(): effective privilege/address space (honoring MPRV), the satp
  // the walk would use, and the SUM/MXR context bytes. All of these are fixed for the
  // life of one block dispatch: they only change via CSR ops, traps, or xRETs, which
  // are barriers (or end the block).
  ctx->built = true;
  const PrivMode priv = DataPriv();
  const bool use_vsatp = DataVirt();
  const uint64_t satp = use_vsatp ? csrs_.vsatp() : csrs_.satp();
  if (IdentityTranslation(satp, priv)) {
    // A window computed under other PMP contents is emptied; it refills at its next
    // access.
    const uint64_t stamp = window_stamp();
    PmpWindow* const windows = windows_[static_cast<unsigned>(priv)];
    for (unsigned i = 0; i < 2; ++i) {
      if (windows[i].stamp != stamp) {
        windows[i] = PmpWindow{0, 0, nullptr, stamp};
      }
    }
    ctx->identity = true;
    ctx->priv = priv;
    ctx->load = &windows[0];
    ctx->store = &windows[1];
    const Ram& ram = bus_->ram();
    ctx->ram_base = ram.base();
    ctx->ram_marks = ram.page_marks();
    ctx->ram_lines = ram.exec_lines();
    return;
  }
  ctx->paged = tlb_mask_ != 0;
  if (!ctx->paged) {
    return;
  }
  ctx->satp = satp;
  const uint64_t status = use_vsatp ? csrs_.Get(kCsrVsstatus) : csrs_.mstatus();
  const bool sum = Bit(status, MstatusBits::kSum) != 0;
  const bool mxr = Bit(status, MstatusBits::kMxr) != 0;
  ctx->load_ctx = TlbCtx(priv, sum, mxr, AccessType::kLoad);
  ctx->store_ctx = TlbCtx(priv, sum, mxr, AccessType::kStore);
}

bool Hart::RefillWindow(uint64_t paddr, AccessType type, PrivMode priv) {
  PmpWindow* const window =
      &windows_[static_cast<unsigned>(priv)][type == AccessType::kStore ? 1 : 0];
  Ram& ram = bus_->ram();
  if (!ram.Contains(paddr, 1)) {
    return false;  // MMIO or unmapped: the slow path routes it
  }
  const PmpRange range = csrs_.pmp().PermittedWindow(paddr, type, priv);
  // Clipped to RAM and rounded inward to 8 bytes; an empty result (a denied access)
  // keeps the old window, which may still serve other addresses.
  const uint64_t lo = AlignUp(std::max(range.base, ram.base()), 8);
  const uint64_t hi = AlignDown(std::min(range.limit, ram.base() + ram.size()), 8);
  if (lo >= hi) {
    return false;
  }
  window->lo = lo;
  window->span = hi - lo;
  window->host = ram.data() + (lo - ram.base());
  window->stamp = window_stamp();
  return paddr - lo < hi - lo;
}

// The block executor (DESIGN.md §2f). Dispatch is a computed goto: each lowered op
// carries its handler's label address. Budget checks land batch boundaries on the
// same instruction as per-instruction stepping: every op post-checks one limit, set
// per pass through a block, and fused ops (which retire several instructions
// atomically) pre-check that they fit entirely, else spill before their first member
// for RunBatch to run it as one tick. A pass that ends at a branch or a kEnd
// continues into the next pass, of the same block or of the valid block cached at
// the next pc, without returning to RunBatch.
// Aligned to 64 bytes so that its speed depends on its own code only: two builds
// whose ExecuteBlock machine code was byte-identical but started 16 bytes apart
// differed by 4-5% in host cycles per instruction.
__attribute__((aligned(64))) Hart::SbRun Hart::ExecuteBlock(const SuperblockEntry* sb,
                                                            uint64_t steps_left,
                                                            uint64_t stop_cycles,
                                                            const void* const** table_out) {
  if (table_out != nullptr) {
    static const void* const kTable[] = {
#define VFM_X(name) &&t_##name,
        VFM_LOWERED_OPS(VFM_X)
#undef VFM_X
    };
    *table_out = kTable;
    return {};
  }

  SbRun run;
  ++sb_blocks_;
  const uint64_t mmio_start = bus_->mmio_ops();
  FastMemCtx fm;
  TlbEntry* const tlb_ld = tlb_[static_cast<unsigned>(AccessType::kLoad)].data();
  TlbEntry* const tlb_st = tlb_[static_cast<unsigned>(AccessType::kStore)].data();
  uint64_t* const g = gpr_;
  const BlockOp* head = &ops_[sb->first_op];  // the running block's first op
  const BlockOp* op = head;
  // Architectural counters and the pc live in locals while inside the block; they are
  // spilled to csrs_/pc_ only at exits and around slow-path memory ops.
  uint64_t pc = pc_;        // written only by branch handlers; fall-through exits
                            // recover it from the last op's next_pc
  uint64_t cycles = 0;      // charged since the last spill
  uint64_t dispatched = 0;  // total this dispatch (incl. slow-path mem ops)
  uint64_t spill_base = 0;  // dispatched at the last spill: instret delta at exits
  uint64_t cycles_base = csrs_.mcycle();
  // The cycle stop as a delta from cycles_base, re-based with it.
  uint64_t cstop = stop_cycles > cycles_base ? stop_cycles - cycles_base : 0;
  // The dispatch loop makes a single budget compare per op: cycles >= climit. It is
  // exact for the cycle stop, and climit also bounds the steps, set at the start of
  // each pass through a block (`pass` below):
  //   * A pass that fits the remaining steps whole (count <= steps_left -
  //     dispatched) runs under the cycle stop alone: a pass retires at most `count`
  //     instructions, and `link` exits before the next pass when no step is left.
  //   * The batch's last, partial pass (a tail pass) also stops at the static cycle
  //     charge of its longest op prefix that retires at most the remaining steps.
  //     Every op charges at least one cycle (instr_base >= 1 is a Machine
  //     invariant), so the compare fires right after that prefix's last op, or
  //     earlier when a runtime surcharge (a paged access's replayed walk) adds
  //     cycles.
  //   * After a slow-path op, the limit is the cycle stop clamped by the remaining
  //     steps counted as cycles: conservative for the same reason.
  // A limit reached before either stop (a surcharge inside a tail prefix, or the
  // conservative bound) is re-set at `exit_fall` for the steps still left, and the
  // pass goes on: each op reduces the steps left and the pass's remaining members
  // alike, so a tail pass keeps more members than steps and its prefix walk still
  // ends at a real op. An early exit would be invisible (RunBatch re-checks its own
  // bounds and re-dispatches), but it costs a dispatch. Fused ops pre-check the step
  // budget exactly (VFM_TFIT), so `dispatched` never overshoots.
  uint64_t climit = 0;
  bool tail = false;  // the running pass has more members than steps left
  // The limit of a tail pass resumed at `from` with `steps` left: the static charge
  // of its longest op prefix that retires at most `steps`, capped at the cycle stop.
  const auto tail_limit = [&](const BlockOp* from, uint64_t steps) {
    uint64_t prefix = cycles;
    for (const BlockOp* p = from; p->count <= steps; ++p) {
      steps -= p->count;
      prefix += p->cycles;
    }
    return prefix < cstop ? prefix : cstop;
  };
  // tlb_stamp(), sampled at the block's first memory op along with the rest of the
  // fast-path context, is stable across fast-path ops (fast stores never touch
  // marked lines or PT pages, so no generation it folds can bump); resampled after
  // every slow-path op. The PMP windows need no resampling: no memory op, fast or
  // slow, can write the PMP.
  uint64_t tstamp = 0;

#define VFM_TGO() goto* op->handler
// Bookkeeping + budget post-check of a non-terminal op, then dispatch of the next.
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
// Terminal ops (branches, fused compare+branches): pc is already redirected, and the
// pass continues at `link` when the limit has not been reached.
#define VFM_TFIN()           \
  do {                       \
    cycles += op->cycles;    \
    dispatched += op->count; \
    if (cycles >= climit) {  \
      goto exit_spill;       \
    }                        \
    goto link;               \
  } while (0)
// Fused ops retire `n` instructions atomically: they must fit the remaining steps
// entirely, and may reach the limit only with their last member. Every member
// charges at least one cycle, so when the whole op's charge does not pass the limit,
// no earlier member reached it.
#define VFM_TFIT(n)                                                      \
  do {                                                                   \
    if (dispatched + (n) > steps_left || cycles + op->cycles > climit) { \
      goto misfit;                                                       \
    }                                                                    \
  } while (0)
// Load/store with the host-pointer fast path baked in: one handler does the address
// add, the proof and the host memcpy. Under paged translation the proof is the TLB
// probe (full hit condition, re-checked per access); host_page != nullptr implies
// pmp_whole_page, and an aligned power-of-two access never leaves the frame, so no
// per-access PMP scan is needed. Under identity translation it is the PMP window
// for the effective privilege and access type, refilled when the address falls
// outside it. Any miss — unaligned, cold/foreign/stale slot, non-RAM frame, outside
// RAM or denied by the PMP — takes the slow path. A store must also
// pass Ram::StoreClean (a store to a marked line or PT page goes through Bus::Write
// so the dependency generations bump), and segment mode keeps fast loads (with a
// store-buffer overlay) but buffers every store (DESIGN.md §2i).
#define VFM_TLOAD(name)                                                         \
  do {                                                                          \
    constexpr unsigned kSize = AccessSize(Op::k##name);                         \
    if (!fm.built) {                                                            \
      BuildFastMemCtx(&fm);                                                     \
      tstamp = tlb_stamp();                                                     \
    }                                                                           \
    const uint64_t va = g[op->b] + static_cast<uint64_t>(op->imm);              \
    if (!IsAligned(va, kSize)) {                                                \
      goto slow_mem;                                                            \
    }                                                                           \
    const uint8_t* src;                                                         \
    uint64_t pa = va;                                                           \
    if (fm.paged) {                                                             \
      TlbEntry& slot = tlb_ld[(va >> 12) & tlb_mask_];                          \
      if (slot.vpage != va >> 12 || slot.satp != fm.satp ||                     \
          slot.ctx != fm.load_ctx || slot.stamp != tstamp ||                    \
          slot.host_page == nullptr) {                                          \
        goto slow_mem;                                                          \
      }                                                                         \
      ++tlb_hits_; /* parity: the slow path's Translate would count this hit */ \
      src = slot.host_page + (va & MaskLow(12));                                \
      pa = slot.paddr_page | (va & MaskLow(12));                                \
      cycles += slot.extra_cycles;                                              \
    } else if (va - fm.load->lo < fm.load->span) {                              \
      src = fm.load->host + (va - fm.load->lo);                                 \
    } else {                                                                    \
      goto window_miss;                                                         \
    }                                                                           \
    ++fastmem_hits_;                                                            \
    uint64_t value = 0;                                                         \
    std::memcpy(&value, src, kSize);                                            \
    if (segment_active_ && !sbuf_.empty()) {                                    \
      OverlayLoad(pa, kSize, &value);                                           \
    }                                                                           \
    if (op->a != 0) {                                                           \
      g[op->a] = LoadExtend(Op::k##name, value);                                \
    }                                                                           \
    VFM_TNEXT();                                                                \
  } while (0)
#define VFM_TSTORE(name)                                                        \
  do {                                                                          \
    constexpr unsigned kSize = AccessSize(Op::k##name);                         \
    if (!fm.built) {                                                            \
      BuildFastMemCtx(&fm);                                                     \
      tstamp = tlb_stamp();                                                     \
    }                                                                           \
    const uint64_t va = g[op->b] + static_cast<uint64_t>(op->imm);              \
    if (!IsAligned(va, kSize) || segment_active_) {                             \
      goto slow_mem;                                                            \
    }                                                                           \
    uint8_t* dst;                                                               \
    uint64_t pa = va;                                                           \
    if (fm.paged) {                                                             \
      TlbEntry& slot = tlb_st[(va >> 12) & tlb_mask_];                          \
      if (slot.vpage != va >> 12 || slot.satp != fm.satp ||                     \
          slot.ctx != fm.store_ctx || slot.stamp != tstamp ||                   \
          slot.host_page == nullptr ||                                          \
          !Ram::StoreClean(slot.page_mark, slot.page_lines, va & MaskLow(12))) { \
        goto slow_mem;                                                          \
      }                                                                         \
      ++tlb_hits_;                                                              \
      dst = slot.host_page + (va & MaskLow(12));                                \
      pa = slot.paddr_page | (va & MaskLow(12));                                \
      cycles += slot.extra_cycles;                                              \
    } else if (va - fm.store->lo >= fm.store->span) {                           \
      goto window_miss;                                                         \
    } else if (Ram::StoreClean(fm.ram_marks, fm.ram_lines, va - fm.ram_base)) { \
      dst = fm.store->host + (va - fm.store->lo);                               \
    } else {                                                                    \
      goto slow_mem;                                                            \
    }                                                                           \
    ++fastmem_hits_;                                                            \
    std::memcpy(dst, &g[op->c], kSize);                                         \
    if (reservation_ && AlignDown(*reservation_, 8) == AlignDown(pa, 8)) {      \
      reservation_.reset();                                                     \
    }                                                                           \
    VFM_TNEXT();                                                                \
  } while (0)

  goto pass;

  // A pass ended at a branch or a kEnd, under the limit, with pc the next pc. With
  // no step left the block exits. Otherwise the next pass runs here, in the same
  // block when pc is its head (a loop), else in the block cached at pc when that one
  // is valid: its key matches the running block's satp, priv and virt, and its
  // epoch equals the running block's, which is BlockEpoch(cache_stamp()) — nothing
  // in a block moves the PMP contents or the arena epoch, and a slow-path op that
  // moves the monotonic part abandons the block — so it was built in this arena
  // epoch under these contents and its ops are intact. A zero-op barrier entry must
  // be Ticked, so it does not link. An open_end block links like any other (RunBatch
  // extends it when a dispatch starts there): its cold continuation may be a member
  // that the block cached at it runs, so nothing decodes it again. The RunBatch
  // gate's argument holds across passes unchanged: pc is a block's 4-aligned tag,
  // and nothing a block runs can park the hart or change the interrupt picture, so
  // the one sample taken per RunBatch dispatch stays valid. The fast-memory context
  // and the TLB stamp carry over for the same reasons. A link counts as a superblock
  // hit; the dispatch count does not move.
link:
  if (dispatched >= steps_left) {
    goto exit_spill;
  }
  if (pc != sb->tag) {
    const SuperblockEntry* const next = &sblocks_[CacheSlot(pc) & sb_mask_];
    if (next->tag != pc || next->epoch != sb->epoch || next->satp != sb->satp ||
        next->priv != sb->priv || next->virt != sb->virt || next->count == 0) {
      goto exit_spill;
    }
    sb = next;
    head = &ops_[next->first_op];
    ++sb_hits_;
  }
  op = head;
pass: {
  // The limit for the pass that starts at `op` (see climit above). The members of a
  // tail pass's ops sum to count > steps_rem, so its walk ends at a real op, before
  // any kEnd.
  const uint64_t steps_rem = steps_left - dispatched;
  tail = sb->count > steps_rem;
  climit = tail ? tail_limit(op, steps_rem) : cstop;
  VFM_TGO();
}

  // -- Handlers, one per LoweredOp. Those of the block-op table are generated from
  // it and compute through the shared semantics helpers in src/isa/instr.h.
t_End:
  pc = op[-1].next_pc;  // the block ended without a branch: the fall-through pc
  goto link;
t_Nop:
  VFM_TNEXT();
t_Const:
  g[op->a] = static_cast<uint64_t>(op->imm);
  VFM_TNEXT();
t_ConstChain:
  VFM_TFIT(op->count);
  g[op->a] = static_cast<uint64_t>(op->imm);
  VFM_TNEXT();
#define VFM_X(name)                                                             \
  t_##name:                                                                     \
  g[op->a] = AluResult(Op::k##name, g[op->b], static_cast<uint64_t>(op->imm)); \
  VFM_TNEXT();
  VFM_ALU_IMM_OPS(VFM_X)
#undef VFM_X
#define VFM_X(name)                                        \
  t_##name:                                                \
  g[op->a] = AluResult(Op::k##name, g[op->b], g[op->c]);  \
  VFM_TNEXT();
  VFM_ALU_REG_OPS(VFM_X)
#undef VFM_X
#define VFM_X(name)                                                                  \
  t_##name:                                                                          \
  pc = BranchTaken(Op::k##name, g[op->b], g[op->c]) ? static_cast<uint64_t>(op->imm) \
                                                     : op->next_pc;                  \
  VFM_TFIN();
  VFM_BRANCH_OPS(VFM_X)
#undef VFM_X
t_J:
  pc = static_cast<uint64_t>(op->imm);
  VFM_TFIN();
t_Jal:
  g[op->a] = op->next_pc;
  pc = static_cast<uint64_t>(op->imm);
  VFM_TFIN();
t_Jr:
  pc = JalrTarget(g[op->b], op->imm);
  VFM_TFIN();
t_Jalr:
  pc = JalrTarget(g[op->b], op->imm);
  g[op->a] = op->next_pc;
  VFM_TFIN();
// Fused compare + branch-on-zero: the compare result is still written.
#define VFM_FUSED(name, cmp, rhs, taken_on_zero)                      \
  t_##name : {                                                        \
    VFM_TFIT(2);                                                      \
    const uint64_t v = AluResult(Op::k##cmp, g[op->b], rhs);          \
    g[op->a] = v;                                                     \
    pc = (v == 0) == (taken_on_zero) ? static_cast<uint64_t>(op->imm) \
                                     : op->next_pc;                   \
    VFM_TFIN();                                                       \
  }
  VFM_FUSED(SltBeqz, Slt, g[op->c], true)
  VFM_FUSED(SltBnez, Slt, g[op->c], false)
  VFM_FUSED(SltuBeqz, Sltu, g[op->c], true)
  VFM_FUSED(SltuBnez, Sltu, g[op->c], false)
  VFM_FUSED(SltiBeqz, Slti, static_cast<uint64_t>(int64_t{op->imm2}), true)
  VFM_FUSED(SltiBnez, Slti, static_cast<uint64_t>(int64_t{op->imm2}), false)
  VFM_FUSED(SltiuBeqz, Sltiu, static_cast<uint64_t>(int64_t{op->imm2}), true)
  VFM_FUSED(SltiuBnez, Sltiu, static_cast<uint64_t>(int64_t{op->imm2}), false)
#undef VFM_FUSED
#define VFM_X(name) \
  t_##name:         \
  VFM_TLOAD(name);
  VFM_LOAD_OPS(VFM_X)
#undef VFM_X
#define VFM_X(name) \
  t_##name:         \
  VFM_TSTORE(name);
  VFM_STORE_OPS(VFM_X)
#undef VFM_X

window_miss: {
  // An identity access outside its PMP window: refill the window around it and, if
  // it now holds the address, run the op's handler again, which then hits.
  if (fm.identity &&
      RefillWindow(g[op->b] + static_cast<uint64_t>(op->imm),
                   IsStore(op->op) ? AccessType::kStore : AccessType::kLoad, fm.priv)) {
    VFM_TGO();
  }
}
slow_mem: {
  // Spill the exact architectural state (TakeTrap records pc_ into xepc; the bus
  // path may recurse into translation), run the op through the interpreter's
  // load/store helper, re-base the locals, and re-validate the block before resuming.
  ++fastmem_misses_;
  pc_ = op->next_pc - 4;  // the member's pc (memory ops lower 1:1)
  csrs_.AddInstret(dispatched - spill_base);
  csrs_.AddCycles(cycles);
  cycles = 0;
  DecodedInstr d;
  d.op = op->op;
  d.rd = op->a;
  d.rs1 = op->b;
  d.rs2 = op->c;
  d.imm = op->imm;
  StepResult r = ExecuteLoadStore(d);
  if (r.aborted) {
    // Segment sync event: the op had no effect and is not counted; pc_ and the
    // counters were spilled exactly above, so the barrier re-runs it via Tick.
    run.end_batch = true;
    run.last = r;
    goto exit_done;
  }
  // The member's replayed fetch-walk cost: what its lowering charged beyond the
  // base and memory cost ExecuteLoadStore charges itself.
  r.cycles += op->cycles - (cost_->instr_base + cost_->instr_mem);
  if (!r.trapped) {
    csrs_.AddInstret(1);
  }
  csrs_.AddCycles(r.cycles);
  ++dispatched;
  if (r.trapped) {
    run.end_batch = true;  // pc_ was vectored by TakeTrap; counters are spilled
    run.last = r;
    goto exit_done;
  }
  spill_base = dispatched;  // the slow op's instret was added above
  cycles_base = csrs_.mcycle();
  tstamp = tlb_stamp();  // a slow-path store may have bumped a folded generation
  const bool mmio = bus_->mmio_ops() != mmio_start;
  // The PMP cannot change inside a block, so only the monotonic part can move.
  const bool stale = MonotonicPart(cache_stamp()) != arena_stamp_;
  if (mmio || stale || dispatched >= steps_left || cycles_base >= stop_cycles) {
    // `stale` abandons the block (the store invalidated code it may contain)
    // without ending the batch: RunBatch re-validates and rebuilds.
    if (stale) {
      ++sb_deopts_;
    }
    run.end_batch = mmio;
    run.last = r;
    goto exit_done;
  }
  cstop = stop_cycles - cycles_base;  // > 0: checked just above
  const uint64_t steps_rem = steps_left - dispatched;
  climit = cstop < steps_rem ? cstop : steps_rem;
  ++op;
  VFM_TGO();
}

misfit:
  // A fused op would overshoot the batch budget: spill before its first member,
  // which RunBatch then runs as one interpreted tick.
  ++sb_deopts_;
  pc_ = op->next_pc - uint64_t{4} * op->count;
  csrs_.AddInstret(dispatched - spill_base);
  csrs_.AddCycles(cycles);
  run.misfit = true;
  goto exit_done;

exit_fall:
  if (cycles < cstop && dispatched < steps_left) {
    // The pass's limit came before either stop: re-set it for the steps left (a
    // whole pass still fits them) and go on with `op`.
    climit = tail ? tail_limit(op, steps_left - dispatched) : cstop;
    if (cycles < climit) {
      VFM_TGO();
    }
  }
  pc = op[-1].next_pc;  // non-branch exit: resume after the last executed op
exit_spill:
  pc_ = pc;
  csrs_.AddInstret(dispatched - spill_base);
  csrs_.AddCycles(cycles);
  run.last.executed = true;
exit_done:
  run.dispatched = dispatched;
  icache_hits_ += dispatched;
  sb_instrs_ += dispatched;
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
  const uint64_t imm = static_cast<uint64_t>(d.imm);
  const uint64_t next = pc_ + 4;
  const uint64_t base_cost = cost_->instr_base;

  switch (d.op) {
    case Op::kInvalid:
      return IllegalInstr(d);
    case Op::kLui:
      set_gpr(d.rd, imm);
      return Retire(next, base_cost);
    case Op::kAuipc:
      set_gpr(d.rd, pc_ + imm);
      return Retire(next, base_cost);
    case Op::kJal:
      set_gpr(d.rd, next);
      return Retire(pc_ + imm, base_cost);
    case Op::kJalr: {
      const uint64_t target = JalrTarget(rs1, d.imm);
      set_gpr(d.rd, next);
      return Retire(target, base_cost);
    }
#define VFM_X(name) case Op::k##name:
    VFM_BRANCH_OPS(VFM_X)
    return Retire(BranchTaken(d.op, rs1, rs2) ? pc_ + imm : next, base_cost);
    VFM_LOAD_OPS(VFM_X)
    VFM_STORE_OPS(VFM_X)
    return ExecuteLoadStore(d);
    VFM_ALU_IMM_OPS(VFM_X)
    set_gpr(d.rd, AluResult(d.op, rs1, imm));
    return Retire(next, base_cost);
    VFM_ALU_REG_OPS(VFM_X)
    set_gpr(d.rd, AluResult(d.op, rs1, rs2));
    return Retire(next, AluCost(d.op));
#undef VFM_X

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

    case Op::kEcall:
      return TakeTrap(EcallCause(priv_, virt_), 0);
    case Op::kEbreak:
      return TakeTrap(CauseValue(ExceptionCause::kBreakpoint), pc_);

    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc:
    case Op::kCsrrwi:
    case Op::kCsrrsi:
    case Op::kCsrrci: {
      uint64_t old_value = 0;
      if (!ExecuteCsrInstr(csrs_, d, rs1, priv_, virt_, &old_value)) {
        return IllegalInstr(d);
      }
      set_gpr(d.rd, old_value);
      return Retire(next, base_cost + cost_->hal_csr_access);
    }

    case Op::kSret:
    case Op::kMret: {
      PrivState state{pc_, priv_, virt_};
      if (!(d.op == Op::kMret ? Mret(csrs_, &state) : Sret(csrs_, &state))) {
        return IllegalInstr(d);
      }
      priv_ = state.priv;
      virt_ = state.virt;
      return Retire(state.pc, cost_->trap_entry);
    }
    case Op::kWfi:
      if (!WfiPermitted(csrs_, priv_, virt_)) {
        return IllegalInstr(d);
      }
      waiting_ = true;
      return Retire(next, base_cost);
    case Op::kSfenceVma: {
      if (!SfenceVmaPermitted(csrs_, priv_, virt_)) {
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
  const unsigned size = AccessSize(d.op);
  const uint64_t cost = cost_->instr_base + cost_->instr_mem;

  if (IsStore(d.op)) {
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
  set_gpr(d.rd, LoadExtend(d.op, value));
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
    set_gpr(d.rd, is64 ? value : LoadExtend(Op::kLw, value));
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
  if (!bus_->Write(out.paddr, size, AmoResult(d.op, old, gpr_[d.rs2]))) {
    return TakeTrap(CauseValue(ExceptionCause::kStoreAccessFault), vaddr);
  }
  set_gpr(d.rd, is64 ? old : LoadExtend(Op::kLw, old));
  return Retire(pc_ + 4, cost + out.extra_cycles);
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
  // inside RAM whenever any of its bytes does while RAM's base and size are
  // multiples of 8, as every platform profile's are: an 8-byte-aligned granule
  // then never straddles its edge.
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

}  // namespace vfm
