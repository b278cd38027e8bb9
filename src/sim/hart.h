// One simulated RV64 hart: the interpreter and what is the hardware's own around a
// trap (its cycle charges, the trap count, WFI parking, TLB flushes). Trap entry,
// interrupt selection and the other privileged transitions are the shared ones of
// src/sim/csr_file.h. The Machine (src/sim/machine.h) owns harts and drives them; an
// optional M-mode owner hook lets native C++ code (the monitor) play the role of
// M-mode software.

#ifndef SRC_SIM_HART_H_
#define SRC_SIM_HART_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/mapped_array.h"
#include "src/common/state.h"
#include "src/isa/instr.h"
#include "src/isa/priv.h"
#include "src/mem/bus.h"
#include "src/sim/config.h"
#include "src/sim/csr_file.h"
#include "src/sim/mmu.h"

namespace vfm {

// Outcome of one hart tick, consumed by the machine for scheduling, statistics, and
// the M-mode owner hook.
struct StepResult {
  bool executed = false;      // an instruction retired (or an interrupt was taken)
  bool waiting = false;       // hart is parked in WFI
  bool trapped = false;       // a trap (exception or interrupt) was taken this tick
  uint64_t trap_cause = 0;    // mcause-style value, valid when trapped
  PrivMode trap_target = PrivMode::kMachine;  // where the trap vectored
  bool entered_mmode = false;  // trap landed in M-mode: invoke the owner if installed
  uint64_t cycles = 0;         // cycles charged for this tick
  // Quantum-mode segments only (DESIGN.md §2i): the tick hit a sync event (MMIO,
  // AMO/LR/SC, fence.i) it cannot model privately and aborted with zero architectural
  // effect. The hart is parked sync-pending; the Machine re-runs the tick at the
  // barrier, where full bus access is restored.
  bool aborted = false;
};

class Hart : public ListedState<Hart> {
 public:
  Hart(unsigned index, Bus* bus, const HartIsaConfig& isa, const CostModel* cost,
       const SimTuning& tuning = SimTuning{});

  unsigned index() const { return index_; }

  // -- Architectural state access (also the monitor HAL's raw view). ---------------
  uint64_t gpr(unsigned i) const { return gpr_[i]; }
  void set_gpr(unsigned i, uint64_t value) {
    if (i != 0) {
      gpr_[i] = value;
    }
  }
  uint64_t pc() const { return pc_; }
  void set_pc(uint64_t pc) { pc_ = pc; }
  PrivMode priv() const { return priv_; }
  void set_priv(PrivMode priv) { priv_ = priv; }
  bool virt() const { return virt_; }
  void set_virt(bool virt) { virt_ = virt; }
  bool waiting() const { return waiting_; }
  void set_waiting(bool waiting) { waiting_ = waiting; }

  CsrFile& csrs() { return csrs_; }
  const CsrFile& csrs() const { return csrs_; }
  Bus* bus() { return bus_; }

  // -- Execution. -------------------------------------------------------------------
  // Runs one tick: takes a pending enabled interrupt if any, else executes one
  // instruction (or stays parked in WFI).
  StepResult Tick();

  // Runs up to `max_steps` ticks as a batch. The batch ends early — after the tick
  // that caused it — on a trap, WFI parking, any MMIO access, or the hart's cycle
  // counter reaching `stop_cycles` (the next mtime-tick boundary). These boundaries
  // are exactly the points where the machine loop must run between instructions
  // (interrupt-line refresh, mtime advance, device ticks, trap delivery), which makes
  // batched execution cycle- and behaviour-identical to per-instruction stepping.
  struct BatchResult {
    uint64_t executed = 0;  // ticks run, including the final one
    uint64_t retired = 0;   // instructions retired (executed ticks that did not trap)
    StepResult last;        // result of the final tick
  };
  BatchResult RunBatch(uint64_t max_steps, uint64_t stop_cycles);

  // -- Quantum-mode segment execution (DESIGN.md §2i). ------------------------------
  // Between BeginSegment and EndSegment the hart executes privately: RAM is
  // read-only to it (every store — including the walker's A/D PTE updates — diverts
  // into a per-hart store buffer that overlays the hart's own loads), and any access
  // the buffer cannot model (MMIO data or fetch, AMO/LR/SC, fence.i) aborts its tick
  // pre-execution with StepResult::aborted, leaving the hart sync-pending. The
  // Machine runs segments of several harts concurrently (or serially, identically),
  // then applies buffered stores and replays sync-pending ticks at the barrier in
  // canonical hart order.
  void BeginSegment() { segment_active_ = true; }
  void EndSegment() { segment_active_ = false; }
  // Barrier: flushes the segment's buffered stores through Bus::Write in insertion
  // order, so dependency-mark and generation bumps happen exactly as the serial
  // stores would have caused them.
  void ApplySegmentStores();
  // Returns whether the last segment ended on a sync event, clearing the flag.
  bool ConsumeSyncPending() {
    const bool pending = sync_pending_;
    sync_pending_ = false;
    return pending;
  }

  // Takes a trap architecturally (EnterTrap: status stacks, the vector) and charges
  // it. Exposed for the machine (interrupt injection) and tests.
  StepResult TakeTrap(uint64_t cause, uint64_t tval);

  // Selects the highest-priority pending, enabled interrupt that may be taken in the
  // current mode, or nullopt: SelectInterrupt (src/sim/csr_file.h) at the hart's
  // privilege and V bit. The nothing-pending test stays inline, since RunBatch runs
  // it on every block dispatch.
  std::optional<uint64_t> PendingInterrupt() const {
    if ((csrs_.EffectiveMip() & csrs_.mie()) == 0) {
      return std::nullopt;
    }
    return SelectInterrupt(csrs_, priv_, virt_);
  }

  // A load into *value, or a store of *value, of `size` bytes at `vaddr`, with full
  // translation and PMP checks, at an explicitly chosen effective privilege and
  // address space. The monitor's trapped-access emulation uses it (paper §4.2): M-mode
  // code accessing memory through the OS page tables. `satp` replaces the live satp;
  // `pmp_override`, when non-null, replaces the physical PMP bank for the protection
  // check (the monitor passes the *virtual* bank when emulating firmware MPRV
  // accesses, since the reference machine would check the firmware's own PMP
  // configuration). On failure, `cause` is the fault to raise.
  struct MemResult {
    bool ok = true;
    ExceptionCause cause = ExceptionCause::kLoadAccessFault;
  };
  MemResult AccessMemoryAs(AccessType type, PrivMode priv, uint64_t satp, uint64_t vaddr,
                           unsigned size, uint64_t* value, const PmpBank* pmp_override = nullptr);

  uint64_t instret() const { return csrs_.minstret(); }
  uint64_t cycles() const { return csrs_.mcycle(); }

  // Total traps taken, by flavor (for Figure 3-style statistics).
  uint64_t traps_taken() const { return traps_taken_; }

  // Decoded-instruction cache counters (DESIGN.md §2b). A hit means fetch
  // translation, PMP check, and decode were all skipped for that tick.
  uint64_t decode_cache_hits() const { return icache_hits_; }
  uint64_t decode_cache_misses() const { return icache_misses_; }

  // Software-TLB counters (DESIGN.md §2d). A hit means the Sv39 walk was skipped (its
  // cycle cost is still charged); misses count only lookups the TLB could have served
  // (paged translations by the engaged lookup path), so hits/(hits+misses) is a true
  // hit rate. Flushes count explicit invalidations (sfence.vma, hfences, monitor
  // world switches) — not generation bumps from PT-page stores.
  uint64_t tlb_hits() const { return tlb_hits_; }
  uint64_t tlb_misses() const { return tlb_misses_; }
  uint64_t tlb_flushes() const { return tlb_flushes_; }

  // Block engine counters (DESIGN.md §2f). A superblock "hit" is a dispatch into a
  // valid cached block, or a link from one block into another inside the executor;
  // a "miss" is a lookup that had to (re)build one. A lookup at a
  // pc whose first instruction is a barrier (CSR op, ecall, xRET, wfi, fence) is
  // neither: its zero-op entry only says "Tick this one", so it counts nowhere.
  // superblock_blocks() counts RunBatch's dispatches into the executor, each of
  // which may run many passes through chained and linked blocks, so
  // superblock_instrs()/superblock_blocks() is the instructions per dispatch, not
  // the mean block length. None of these affect
  // the decode-cache counters: every instruction dispatched from a block still
  // counts one decode-cache hit, keeping hit-rate parity with the per-instruction
  // loop.
  uint64_t superblock_hits() const { return sb_hits_; }
  uint64_t superblock_misses() const { return sb_misses_; }
  uint64_t superblock_blocks() const { return sb_blocks_; }
  uint64_t superblock_instrs() const { return sb_instrs_; }

  // Every block runs lowered, so the threaded_* names count block-engine events:
  // threaded_blocks/instrs equal superblock_blocks/instrs, a promotion is a block
  // build (each build lowers), and a deopt is a mid-block handoff (a fused op that
  // cannot fit the batch budget, whose first member then runs as one interpreted
  // tick, or a slow-path store that invalidated code this block may contain).
  uint64_t threaded_blocks() const { return sb_blocks_; }
  uint64_t threaded_instrs() const { return sb_instrs_; }
  uint64_t threaded_promotions() const { return sb_builds_; }
  uint64_t threaded_deopts() const { return sb_deopts_; }
  // Ops in the superblock op arena (DESIGN.md §2f): the lowered ops of every block
  // built since the arena last started over. Host-side bookkeeping only.
  uint64_t superblock_arena_ops() const { return arena_fill_; }

  // Host-pointer memory fast path counters: hits are loads/stores completed directly
  // against host RAM pointers inside a superblock, through a TLB entry (paged) or a
  // PMP window (identity); misses are in-block memory ops that fell back to the full
  // Translate+Bus path.
  uint64_t host_fastpath_hits() const { return fastmem_hits_; }
  uint64_t host_fastpath_misses() const { return fastmem_misses_; }

  // Drops every TLB entry (generation bump). Called for sfence.vma rs1=x0, hfences,
  // and by the monitor on world switches and remote-fence delivery.
  void FlushTlb();
  // Drops only entries translating the page of `vaddr` (sfence.vma rs1!=x0). Other
  // pages stay cached, which the per-address form exists to allow.
  void FlushTlbPage(uint64_t vaddr);

  // Clears any load reservation (the monitor does this on world switches).
  void ClearReservation() { reservation_.reset(); }

  // Uniform state API (DESIGN.md §2h): architectural state only — GPRs, pc,
  // privilege, virtualization mode, WFI parking, the load reservation, the trap
  // counter, and the nested CSR file (which carries the PMP bank). The translation
  // caches (decode cache, TLB, lowered superblocks) are host-side derived
  // state: they are never serialized, and a load instead bumps the hart's
  // generation counters so every cached entry mis-stamps and rebuilds on demand.
  template <typename Io>
  void VisitState(Io& io) {
    io.BeginSection(StateTag("HART"), 1);
    uint32_t index = index_;
    io.U32(index);
    io.Require(index == index_, "hart index mismatch");
    for (uint64_t& gpr : gpr_) {
      io.U64(gpr);
    }
    io.U64(pc_);
    uint8_t priv = static_cast<uint8_t>(priv_);
    io.U8(priv);
    io.Require(IsPrivModeEncoding(priv), [priv] {
      return "hart privilege " + std::to_string(priv) + " is not U, S or M";
    });
    io.Bool(virt_);
    const bool machine = priv == static_cast<uint8_t>(PrivMode::kMachine);
    io.Require(!virt_ || (csrs_.config().has_h_ext && !machine),
               "hart V bit set in M-mode or without the H extension");
    io.Bool(waiting_);
    bool has_reservation = reservation_.has_value();
    uint64_t reservation = reservation_.value_or(0);
    io.Bool(has_reservation);
    io.U64(reservation);
    io.U64(traps_taken_);
    csrs_.VisitState(io);
    io.EndSection();
    if constexpr (Io::kLoading) {
      priv_ = IsPrivModeEncoding(priv) ? static_cast<PrivMode>(priv) : priv_;
      reservation_ = has_reservation ? std::optional<uint64_t>(reservation) : std::nullopt;
      // +1 on each local counter moves every stamp past those recorded before (the
      // monotonic part of a stamp only grows), so no stale decode, TLB or superblock
      // entry validates again. The PMP bank's load has moved its epoch past every
      // earlier word, which empties the PMP windows as well.
      ++fence_gen_;
      ++tlb_gen_;
    }
  }

 private:
  struct AccessOutcome {
    bool ok = false;
    uint64_t paddr = 0;
    ExceptionCause cause = ExceptionCause::kLoadAccessFault;
    uint64_t extra_cycles = 0;
    // PTE addresses the translation read (for exec-page marking on fetches).
    uint64_t pte_addrs[3] = {};
    unsigned pte_count = 0;
    // The walk hit memory the segment store buffer cannot model (non-RAM PTE):
    // abort the tick to the barrier instead of faulting (DESIGN.md §2i).
    bool segment_abort = false;
  };

  // One slot of the decoded-instruction cache: a pre-decoded instruction plus
  // everything needed to prove the original fetch is still valid. An entry hits only
  // when the tag (virtual pc), translation context (satp/priv/virt), and validity
  // stamp all match; `extra_cycles` replays the page-walk cost of the original fetch
  // so cached execution charges exactly the cycles the slow path would.
  // The cache arrays below are MappedArrays: slots start all-zero, never
  // constructed, and a zero stamp never matches (cache_stamp() and tlb_stamp() are
  // never 0: a PMP epoch never is).
  struct FetchEntry {
    uint64_t tag;                 // virtual pc
    uint64_t stamp;               // cache_stamp() at fill time
    uint64_t satp;                // effective satp (vsatp when virtualized) at fill
    uint64_t extra_cycles;        // page-walk cycles of the original fetch
    DecodedInstr instr;
    uint8_t priv;
    bool virt;
  };

  // One slot of the software TLB: a cached page translation plus everything needed to
  // prove the original walk is still valid. An entry hits only when the tag (virtual
  // page), satp value, translation-context byte, and validity stamp all match.
  // Entries are filled only after a successful walk for this slot's access type, so
  // the walk has already set the PTE's A bit (and D for stores) — a hit never needs
  // to write memory, and a store through a page cached only in the load array
  // re-walks and performs the D-bit update. `extra_cycles` replays the walk cost so
  // hits charge exactly the cycles the walk would.
  struct TlbEntry {
    uint64_t vpage;                 // vaddr >> 12; ~0 (per-address sfence) never matches
    uint64_t paddr_page;            // translated page base (low 12 bits clear)
    uint64_t satp;                  // satp value the walk used (part of the key)
    uint64_t stamp;                 // tlb_stamp() at fill time
    uint64_t extra_cycles;          // page-walk cycles of the original walk
    uint64_t pte_addrs[3];          // PTE addresses the walk read (replayed to callers)
    uint8_t pte_count;
    uint8_t ctx;                    // TlbCtx() at fill time (priv/SUM/MXR)
    // True when the fill-time PMP check proved the whole 4 KiB frame is permitted
    // for this access type and privilege (one entry contains the frame). Hits may
    // then skip the per-access PMP scan: any access inside the frame matches the
    // same entry with the same verdict, and the stamp folds in the bank's epoch,
    // so the entry validates only while the bank holds the contents it was filled
    // under.
    bool pmp_whole_page;
    // Host-pointer fast path (DESIGN.md §2f): when non-null, the frame is plain RAM
    // and superblock memory ops may access `host_page` directly; a store only while
    // Ram::StoreClean holds for it over the frame's `page_mark` and `page_lines` (a
    // store to a marked line or PT page must go through Bus::Write so dependency
    // generations bump). Only set when pmp_whole_page. The pointers point into
    // Bus::ram(), which never moves, so they need no stamp term of their own.
    uint8_t* host_page;
    const uint8_t* page_mark;
    const uint64_t* page_lines;
  };

  static constexpr unsigned kMaxSuperblockLen = 64;

  // One lowered op of a block (DESIGN.md §2f): the handler's computed-goto label
  // address, operand register indices, and everything the handler needs
  // pre-resolved: the sign-extended immediate, folded constant or absolute branch
  // target in `imm`, the pc after the op's last member in `next_pc`, and the summed
  // cycle charge of its members in `cycles` (memory ops add the TLB slot's replayed
  // walk cost at run time). An op retires `count` consecutive members, so its first
  // member is at next_pc - 4 * count.
  struct BlockOp {
    const void* handler;
    uint64_t next_pc;
    int64_t imm;
    uint32_t cycles;
    int32_t imm2;    // baked compare immediate of a fused slti/sltiu + branch
    Op op;           // source op (the slow memory path re-executes it)
    uint8_t a;       // rd (or the compare rd of a fused compare+branch)
    uint8_t b;       // rs1
    uint8_t c;       // rs2 (store data register)
    uint8_t count;   // source instructions this op retires
    LoweredOp kind;
  };

  // One slot of the superblock cache: the header of a straight-line run of
  // decode-cache entries captured under one validity stamp, whose lowered ops sit
  // in the op arena from `first_op` on. The key/stamp discipline is exactly
  // FetchEntry's — the block is valid iff every member FetchEntry would still hit —
  // which holds because all members were verified valid at build time under the
  // same (stamp, satp, priv, virt) and any event that could invalidate one changes
  // cache_stamp(). The stamp is kept in two halves. Its monotonic part is the
  // arena's: every block of the current arena epoch was built under arena_stamp_.
  // Its PMP content id is the block's own, in the top bits of `epoch` above the
  // arena epoch it was built in. So a block is valid iff its key matches, `epoch`
  // is BlockEpoch(cache_stamp()) (its ops have not been overwritten, and the bank
  // holds the contents it was built under) and arena_stamp_ still equals the
  // monotonic part of cache_stamp(). Ends at the first kBarrier op
  // (excluded), at a kBranch (included: the final op), at a 4 KiB page boundary
  // (the next pc may translate differently), or at kMaxSuperblockLen; a block that
  // does not end in a branch ends in a kEnd op. `open_end` marks a block cut short
  // by a cold decode-cache slot; a later dispatch retries the build to extend it
  // once the continuation has been decoded, and links enter it meanwhile like any
  // block. A zero-op entry (count 0) records that the instruction at `tag` is a
  // barrier, so the lookup there Ticks it without a build attempt.
  struct SuperblockEntry {
    uint64_t tag;       // starting virtual pc
    uint64_t satp;      // effective satp at build time
    uint64_t epoch;     // BlockEpoch(cache_stamp()) at build time
    uint32_t first_op;  // index of the block's first op in ops_
    uint8_t count;      // source instructions
    uint8_t priv;
    bool virt;
    bool open_end;
  };
  // Kept at 32 bytes, so the header array plus the arena is no larger than an
  // array of slots that each held a header and a full block's ops inline.
  static_assert(sizeof(SuperblockEntry) == 32);
  static_assert(kMaxSuperblockLen <= UINT8_MAX);

  // A range of RAM in which the PMP permits every access of one type at one
  // effective privilege (PmpBank::PermittedWindow clipped to RAM): the identity
  // fast path's proof (DESIGN.md §2f). [lo, lo + span) is
  // 8-byte aligned at both ends, so an aligned access that starts inside ends
  // inside; span 0 is empty. `host` is lo's host address, and `stamp` the
  // window_stamp() the window was computed under.
  struct PmpWindow {
    uint64_t lo;
    uint64_t span;
    uint8_t* host;
    uint64_t stamp;
  };
  static constexpr PmpWindow kNoWindow = {0, 0, nullptr, 0};

  // Data-access translation context captured once per block dispatch. Valid for the
  // whole block because priv/virt/mstatus/satp can only change at barriers or traps,
  // both of which end the block, and the PMP only by a CSR write or a trap into the
  // monitor.
  struct FastMemCtx {
    bool built = false;
    bool paged = false;     // Sv39 data translation, served through the TLB
    bool identity = false;  // identity data translation, served through PMP windows
    PrivMode priv = PrivMode::kMachine;  // effective data privilege
    uint64_t satp = 0;
    uint8_t load_ctx = 0;
    uint8_t store_ctx = 0;
    // This hart's PMP windows for `priv` under identity translation, else empty ones.
    const PmpWindow* load = &kNoWindow;
    const PmpWindow* store = &kNoWindow;
    // Identity only: the RAM region's base and its marks for StoreClean.
    uint64_t ram_base = 0;
    const uint8_t* ram_marks = nullptr;
    const uint64_t* ram_lines = nullptr;
  };

  // Outcome of one block dispatch, consumed by RunBatch: every pass it ran, through
  // the dispatched block and the blocks it chained or linked into.
  struct SbRun {
    uint64_t dispatched = 0;  // ticks consumed (== instructions dispatched)
    bool end_batch = false;   // batch must end (trap, WFI, MMIO, ...)
    bool misfit = false;      // a fused op did not fit the budget: Tick its first member
    StepResult last;          // result of the final tick, RunBatch-compatible
  };

  // The decode cache's validity stamp: the sum of the monotonic invalidation
  // counters, stores into exec-marked lines (bus) and local fence.i, and the
  // physical bank's epoch(). The epoch's top 16 bits name the bank's contents and
  // its low bits count the resets of its id space, so the stamp's low bits
  // (PmpBank::kEpochCountMask) are a sum of counters that only grow (2^48 events
  // short of the id), and its top bits are the content id. One equality compare
  // thus proves that no counter moved and that the bank holds the contents the
  // entry was filled under: a monitor world switch back to earlier contents finds
  // that world's entries still valid.
  uint64_t cache_stamp() const;

  // TLB analogue of cache_stamp(): stores into PT-marked pages (bus), explicit full
  // flushes, and the bank's epoch (a walk's per-PTE PMP checks depend on the bank).
  // satp writes and privilege/SUM/MXR changes need no counter — they are part of
  // each entry's key.
  uint64_t tlb_stamp() const;

  // Validity stamp of the PMP windows: the physical bank's epoch (a window's host
  // pointer into RAM never moves).
  uint64_t window_stamp() const;

  // The monotonic part of a cache_stamp() (its PMP content id cleared), which the
  // op arena records, and the `epoch` a block built now under `stamp` carries.
  static uint64_t MonotonicPart(uint64_t stamp) { return stamp & PmpBank::kEpochCountMask; }
  uint64_t BlockEpoch(uint64_t stamp) const {
    return (stamp & ~PmpBank::kEpochCountMask) | arena_epoch_;
  }

  // Packs the walk-relevant translation context into an entry key byte. SUM only
  // affects data accesses and MXR only loads, mirroring TranslateSv39's permission
  // logic, so irrelevant bits are masked out to avoid needless misses.
  static uint8_t TlbCtx(PrivMode priv, bool sum, bool mxr, AccessType type);

  // Effective privilege for data accesses (honors mstatus.MPRV).
  PrivMode DataPriv() const;
  bool DataVirt() const;

  // Translation core shared by the interpreter path (Translate) and the monitor's
  // explicit-context path (AccessMemoryAs). Consults the software TLB before walking
  // when `cacheable` (entries are never filled from, nor served to, non-cacheable
  // lookups — the monitor's MPRV emulation passes the virtual PMP bank, which the
  // stamp machinery does not watch).
  AccessOutcome TranslateWith(const PmpBank& pmp, bool cacheable, const TranslateParams& params,
                              uint64_t vaddr, unsigned size, AccessType type);
  AccessOutcome Translate(uint64_t vaddr, unsigned size, AccessType type, PrivMode priv,
                          bool use_vsatp);
  StepResult Execute(const DecodedInstr& instr);
  StepResult ExecuteLoadStore(const DecodedInstr& instr);
  StepResult ExecuteAmo(const DecodedInstr& instr);
  StepResult IllegalInstr(const DecodedInstr& instr);
  StepResult Retire(uint64_t next_pc, uint64_t cycles);

  // Cycles charged by a simple (kSimple-class) op, before replayed fetch-walk cost.
  uint64_t AluCost(Op op) const {
    return cost_->instr_base + (IsMulDiv(op) ? cost_->instr_muldiv : 0);
  }

  // Slot of `pc` in the decode and superblock caches, before masking: pc >> 2 with
  // pc >> 13 XOR-folded in. Platform profiles load firmware and OS at 1 MiB-aligned
  // bases 3 MiB apart, which pc >> 2 alone maps onto the same slots at every cache
  // size up to 256K entries; the fold separates them. pc >> 13 is constant over a
  // 4 KiB page, so a page's instructions still map one-to-one onto one aligned run
  // of slots.
  static uint64_t CacheSlot(uint64_t pc) { return (pc >> 2) ^ (pc >> 13); }

  // Builds (or rebuilds) the superblock starting at pc_ from currently-valid
  // decode-cache entries, lowering each member into the op arena as it is captured,
  // and points `sb` at it. A barrier op at pc_ gets a zero-op entry (count 0, no
  // ops), keyed and stamped like any block, which RunBatch Ticks directly. Returns
  // false, touching neither `sb` nor the arena, if pc_'s decode-cache slot is cold
  // or stale.
  bool FillSuperblock(SuperblockEntry* sb);
  // Lowers block member `d` at `ipc` after ops[0, n): folds li/auipc +
  // ALU-immediate chains, fuses compare+branch pairs, and pre-sums cycle charges.
  // Returns the new op count. Pure translation — no architectural effects.
  unsigned LowerInstr(BlockOp* ops, unsigned n, const DecodedInstr& d, uint64_t ipc,
                      uint64_t fetch_cycles, const void* const* table) const;
  // Executes a block by direct handler dispatch, retiring up to steps_left
  // instructions or until stop_cycles, a trap, or a slow-path event ends the block
  // or the batch. Where a pass ends at a branch or a fall-through, the next pass
  // runs here too: again in `sb` when the pc is its head, or in the valid block
  // cached at the pc (a link). Each pass is bounded by the steps it may retire: a
  // pass that fits whole runs under the cycle stop alone, and the batch's last,
  // partial pass stops by the cycle charge of its ops that fit. With `table_out`
  // non-null, performs no execution and only returns the handler table for
  // LowerInstr (the computed-goto labels are local to this function); sb may be
  // null then.
  SbRun ExecuteBlock(const SuperblockEntry* sb, uint64_t steps_left, uint64_t stop_cycles,
                     const void* const** table_out = nullptr);
  void BuildFastMemCtx(FastMemCtx* ctx);
  // Replaces this hart's PMP window for `type` at `priv` with the one around `paddr`,
  // if `paddr` lies in RAM and the PMP permits it there. Returns
  // whether the window now holds `paddr`; a failed refill leaves it as it was.
  bool RefillWindow(uint64_t paddr, AccessType type, PrivMode priv);

  // Allocates the configured translation-cache arrays on first execution. Harts are
  // constructed cheaply (a forked machine may never run some harts, and eager
  // multi-megabyte cache allocation would dominate Machine::Fork's latency); Tick()
  // and RunBatch() pay one predictable branch to trigger this.
  void EnsureCaches();

  // -- Quantum-mode segment internals (DESIGN.md §2i). ------------------------------
  // Segment store buffer: 8-byte granules keyed by aligned physical address,
  // insertion-ordered for the barrier flush. Granule data is initialized from RAM at
  // insert — sound because RAM is frozen for the whole segment (every hart buffers
  // its stores and fast-path stores are disabled).
  struct StoreGranule {
    uint64_t addr = 0;  // 8-byte-aligned physical address, fully inside RAM
    uint64_t data = 0;  // granule bytes, little-endian
    uint8_t dirty = 0;  // per-byte dirty mask (bit k = byte addr+k was stored)
  };
  // Routes the Sv39 walker's PTE accesses through the store buffer while a segment
  // is active: reads overlay buffered bytes, A/D updates buffer instead of writing,
  // and non-RAM PTE addresses decline (=> segment abort).
  class SegmentPt : public PtAccessor {
   public:
    explicit SegmentPt(Hart* hart) : hart_(hart) {}
    bool ReadPte(uint64_t pte_addr, uint64_t* pte) override;
    bool WritePte(uint64_t pte_addr, uint64_t pte) override;

   private:
    Hart* hart_;
  };
  // Parks the hart sync-pending and returns the aborted StepResult (no architectural
  // effect has happened; pc/counters are untouched).
  StepResult AbortSegment();
  // Buffers a store of `size` (1..8) bytes at `paddr` (must be fully inside RAM).
  void SegmentBufferStore(uint64_t paddr, unsigned size, uint64_t value);
  // Replaces bytes of *value (a zero-extended raw load of `size` bytes from `paddr`)
  // that the store buffer holds dirty. Callers apply this before sign extension.
  void OverlayLoad(uint64_t paddr, unsigned size, uint64_t* value) const;

  unsigned index_;
  Bus* bus_;
  const CostModel* cost_;
  CsrFile csrs_;
  uint64_t gpr_[32] = {};
  uint64_t pc_ = 0;
  PrivMode priv_ = PrivMode::kMachine;
  bool virt_ = false;
  bool waiting_ = false;
  std::optional<uint64_t> reservation_;
  uint64_t traps_taken_ = 0;

  // Decoded-instruction cache (direct-mapped, indexed by CacheSlot(pc)). Empty when
  // the cache is disabled; icache_mask_ == 0 doubles as the "disabled" flag.
  MappedArray<FetchEntry> icache_;
  uint64_t icache_mask_ = 0;
  uint64_t fence_gen_ = 1;  // bumped by fence.i; starts at 1 so zeroed slots never hit
  uint64_t icache_hits_ = 0;
  uint64_t icache_misses_ = 0;

  // Software TLB: one direct-mapped array per access type (fetch/load/store), indexed
  // by virtual page number. Separate arrays keep the A/D fill invariant local to each
  // access type. Empty when disabled; tlb_mask_ == 0 doubles as the "disabled" flag.
  MappedArray<TlbEntry> tlb_[3];
  uint64_t tlb_mask_ = 0;
  uint64_t tlb_gen_ = 1;  // bumped by FlushTlb; starts at 1 so zeroed slots never hit
  uint64_t tlb_hits_ = 0;
  uint64_t tlb_misses_ = 0;
  uint64_t tlb_flushes_ = 0;

  // Superblock cache (direct-mapped, indexed by CacheSlot(start pc)). Empty when
  // disabled; sb_mask_ == 0 doubles as the "disabled" flag. Requires the decode
  // cache: blocks are built from, and validated against, its entries.
  MappedArray<SuperblockEntry> sblocks_;
  uint64_t sb_mask_ = 0;
  // Op arena: the lowered ops of every block, appended at arena_fill_ as blocks are
  // built, superblock_entries * (kMaxSuperblockLen + 1) ops long. It starts over
  // (fill point 0, next epoch) when the next block might not fit, or when the
  // monotonic part of cache_stamp() has moved off arena_stamp_, the one its blocks
  // were built under: those blocks are all stale then, so starting over costs
  // nothing and keeps a guest that invalidates often at the front of the arena. A
  // change of PMP contents alone does not start it over: blocks built under other
  // contents keep their ops, and are valid again when the bank returns to those
  // contents. A zeroed header never matches: its `epoch` carries content id 0, which
  // no PMP epoch has.
  MappedArray<BlockOp> ops_;
  uint64_t arena_fill_ = 0;
  uint64_t arena_epoch_ = 0;
  uint64_t arena_stamp_ = 0;
  uint64_t sb_hits_ = 0;
  uint64_t sb_misses_ = 0;
  uint64_t sb_blocks_ = 0;
  uint64_t sb_instrs_ = 0;
  uint64_t sb_builds_ = 0;
  uint64_t sb_deopts_ = 0;
  uint64_t fastmem_hits_ = 0;
  uint64_t fastmem_misses_ = 0;
  // PMP windows of the identity fast path, one per effective privilege and access
  // type ([priv][0] loads, [priv][1] stores). They take no TLB entry and no mapped
  // memory: an identity access needs no translation, only the PMP's verdict.
  PmpWindow windows_[4][2] = {};

  // Deferred cache sizing (see EnsureCaches): entry counts computed at construction,
  // applied on first execution. All zero once applied (or when disabled).
  uint64_t pending_icache_entries_ = 0;
  uint64_t pending_tlb_entries_ = 0;
  uint64_t pending_sb_entries_ = 0;
  bool caches_ready_ = false;

  // Quantum-mode segment state (always quiescent outside a RunQuantum barrier
  // interval: segment inactive, nothing pending, buffer empty — so none of this is
  // part of SaveState).
  bool segment_active_ = false;
  bool sync_pending_ = false;
  std::vector<StoreGranule> sbuf_;
  std::unordered_map<uint64_t, uint32_t> sbuf_index_;  // granule addr -> sbuf_ index
  SegmentPt segment_pt_{this};
};

}  // namespace vfm

#endif  // SRC_SIM_HART_H_
