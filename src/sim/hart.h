// One simulated RV64 hart: interpreter, trap logic, and interrupt selection. The
// Machine (src/sim/machine.h) owns harts and drives them; an optional M-mode owner
// hook lets native C++ code (the monitor) play the role of M-mode software.

#ifndef SRC_SIM_HART_H_
#define SRC_SIM_HART_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/mapped_array.h"
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

class Hart {
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

  // Takes a trap architecturally (updates status stacks, vectors the pc). Exposed for
  // the machine (interrupt injection) and tests.
  StepResult TakeTrap(uint64_t cause, uint64_t tval);

  // Selects the highest-priority pending, enabled interrupt that may be taken in the
  // current mode, or nullopt. Pure function of the CSR state.
  std::optional<uint64_t> PendingInterrupt() const;

  // Memory access with full translation + PMP, at an explicitly given effective
  // privilege. Used by the interpreter and by the monitor's MPRV emulation path.
  // On failure returns the fault cause; *fault_addr receives the faulting vaddr.
  struct MemResult {
    bool ok = true;
    ExceptionCause cause = ExceptionCause::kLoadAccessFault;
  };
  MemResult ReadMemory(uint64_t vaddr, unsigned size, uint64_t* value);
  MemResult WriteMemory(uint64_t vaddr, unsigned size, uint64_t value);

  // Same, but at an explicitly chosen effective privilege and address space — used by
  // the monitor's fast-path misaligned emulation and MPRV emulation (paper §4.2),
  // where M-mode code accesses memory through the OS page tables. `satp_override`
  // replaces the live satp; `pmp_override`, when non-null, replaces the physical PMP
  // bank for the protection check (the monitor passes the *virtual* bank when
  // emulating firmware MPRV accesses, since the reference machine would check the
  // firmware's own PMP configuration).
  MemResult ReadMemoryAs(PrivMode priv, uint64_t satp_override, uint64_t vaddr, unsigned size,
                         uint64_t* value, const PmpBank* pmp_override = nullptr);
  MemResult WriteMemoryAs(PrivMode priv, uint64_t satp_override, uint64_t vaddr, unsigned size,
                          uint64_t value, const PmpBank* pmp_override = nullptr);

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
  // valid cached block; a "miss" is a lookup that had to (re)build one. Mean block
  // length is superblock_instrs()/superblock_blocks(). None of these affect the
  // decode-cache counters: every instruction dispatched from a block still counts one
  // decode-cache hit, keeping hit-rate parity with the per-instruction loop.
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

  // Host-pointer memory fast path counters: hits are loads/stores completed directly
  // against cached host RAM pointers inside a superblock; misses are in-block memory
  // ops that fell back to the full Translate+Bus path.
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
  // state: they are never serialized, and LoadState instead bumps the hart's
  // generation counters so every cached entry mis-stamps and rebuilds on demand.
  void SaveState(StateWriter& writer) const;
  bool LoadState(StateReader& reader);

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
  // when the tag (virtual pc), translation context (satp/priv/virt), and generation
  // stamp all match; `extra_cycles` replays the page-walk cost of the original fetch
  // so cached execution charges exactly the cycles the slow path would.
  // The cache arrays below are MappedArrays: slots start all-zero, never
  // constructed, and a zero stamp never matches (cache_stamp() and tlb_stamp() are
  // at least 1, because fence_gen_ and tlb_gen_ start at 1).
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
  // page), satp value, translation-context byte, and generation stamp all match.
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
    // same entry with the same verdict, and the stamp folds in the bank's
    // generation, so any PMP write invalidates the entry before it can lie.
    bool pmp_whole_page;
    // Host-pointer fast path (DESIGN.md §2f): when non-null, the frame is plain RAM
    // and superblock memory ops may access `host_page` directly, provided
    // pmp_whole_page holds and `*page_mark` is zero (a marked page must go through
    // Bus::Write so dependency generations bump). Only set when pmp_whole_page; the
    // stamp folds in Bus::ram_generation() so pointers never outlive a RAM remap.
    uint8_t* host_page;
    const uint8_t* page_mark;
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

  // One slot of the superblock cache: a straight-line run of decode-cache entries
  // captured under one validity stamp and lowered as it is built. The key/stamp
  // discipline is exactly FetchEntry's — the block is valid iff every member
  // FetchEntry would still hit — which holds because all members were verified valid
  // at build time under the same (stamp, satp, priv, virt) and any event that could
  // invalidate one bumps a counter folded into cache_stamp(). Ends at the first
  // kBarrier op (excluded), at a kBranch (included: the final op), at a 4 KiB page
  // boundary (the next pc may translate differently), or at kMaxSuperblockLen; a
  // block that does not end in a branch ends in a kEnd op. `open_end` marks a block
  // cut short by a cold decode-cache slot; a later dispatch retries the build to
  // extend it once the continuation has been decoded.
  struct SuperblockEntry {
    uint64_t tag;                 // starting virtual pc
    uint64_t stamp;               // cache_stamp() at build time
    uint64_t satp;                // effective satp at build time
    uint16_t count;               // source instructions
    bool open_end;
    uint8_t priv;
    bool virt;
    bool has_mem;  // skip the tlb_stamp() sample for pure-ALU blocks
    BlockOp ops[kMaxSuperblockLen + 1];
  };

  // Data-access translation context captured once per block dispatch. Valid for the
  // whole block because priv/virt/mstatus/satp can only change at barriers or traps,
  // both of which end the block.
  struct FastMemCtx {
    bool built = false;
    bool engaged = false;  // paged translation active for data accesses
    uint64_t satp = 0;
    uint8_t load_ctx = 0;
    uint8_t store_ctx = 0;
  };

  // Outcome of one block dispatch, consumed by RunBatch.
  struct SbRun {
    uint64_t dispatched = 0;  // ticks consumed (== instructions dispatched)
    bool end_batch = false;   // batch must end (trap, WFI, MMIO, ...)
    bool misfit = false;      // a fused op did not fit the budget: Tick its first member
    StepResult last;          // result of the final tick, RunBatch-compatible
  };

  // Sum of the three monotonic invalidation counters: stores into exec-marked pages
  // (bus), physical PMP reconfiguration, and local fence.i. Each counter only grows,
  // so the sum only grows and a single equality compare validates all three.
  uint64_t cache_stamp() const;

  // TLB analogue of cache_stamp(): stores into PT-marked pages (bus), physical PMP
  // reconfiguration (a walk's per-PTE PMP checks depend on the bank), explicit full
  // flushes, and RAM-region changes (which would dangle cached host_page pointers).
  // satp writes and privilege/SUM/MXR changes need no counter — they are part of
  // each entry's key.
  uint64_t tlb_stamp() const;

  // Packs the walk-relevant translation context into an entry key byte. SUM only
  // affects data accesses and MXR only loads, mirroring TranslateSv39's permission
  // logic, so irrelevant bits are masked out to avoid needless misses.
  static uint8_t TlbCtx(PrivMode priv, bool sum, bool mxr, AccessType type);

  // Effective privilege for data accesses (honors mstatus.MPRV).
  PrivMode DataPriv() const;
  bool DataVirt() const;

  // Translation core shared by the interpreter path (Translate) and the monitor's
  // explicit-context path (ReadMemoryAs/WriteMemoryAs). Consults the software TLB
  // before walking when `cacheable` (entries are never filled from, nor served to,
  // non-cacheable lookups — the monitor's MPRV emulation passes a stack-local PMP
  // bank the stamp machinery cannot watch).
  AccessOutcome TranslateWith(const PmpBank& pmp, bool cacheable, const TranslateParams& params,
                              uint64_t vaddr, unsigned size, AccessType type);
  AccessOutcome Translate(uint64_t vaddr, unsigned size, AccessType type, PrivMode priv,
                          bool use_vsatp);
  StepResult Execute(const DecodedInstr& instr);
  StepResult ExecuteCsrOp(const DecodedInstr& instr);
  StepResult ExecuteMret(const DecodedInstr& instr);
  StepResult ExecuteSret(const DecodedInstr& instr);
  StepResult ExecuteWfi(const DecodedInstr& instr);
  StepResult ExecuteLoadStore(const DecodedInstr& instr);
  StepResult ExecuteAmo(const DecodedInstr& instr);
  StepResult IllegalInstr(const DecodedInstr& instr);
  StepResult Retire(uint64_t next_pc, uint64_t cycles);

  // Cycles charged by a simple (kSimple-class) op, before replayed fetch-walk cost.
  uint64_t AluCost(Op op) const {
    return cost_->instr_base + (IsMulDiv(op) ? cost_->instr_muldiv : 0);
  }

  // Builds (or rebuilds) the superblock starting at pc_ from currently-valid
  // decode-cache entries, lowering each member into the slot as it is captured.
  // Returns false, leaving the slot untouched, if not even one instruction could be
  // captured (cold or stale decode-cache slot at pc_).
  bool FillSuperblock(SuperblockEntry* sb);
  // Lowers block member `d` at `ipc` after ops[0, n): folds li/auipc +
  // ALU-immediate chains, fuses compare+branch pairs, and pre-sums cycle charges.
  // Returns the new op count. Pure translation — no architectural effects.
  unsigned LowerInstr(BlockOp* ops, unsigned n, const DecodedInstr& d, uint64_t ipc,
                      uint64_t fetch_cycles, const void* const* table) const;
  // Executes a block by direct handler dispatch, retiring up to steps_left
  // instructions or until stop_cycles, a trap, or a slow-path event ends the block
  // or the batch. With `table_out` non-null, performs no execution and only returns
  // the handler table for LowerInstr (the computed-goto labels are local to this
  // function); sb may be null then.
  SbRun ExecuteBlock(const SuperblockEntry* sb, uint64_t steps_left, uint64_t stop_cycles,
                     const void* const** table_out = nullptr);
  void BuildFastMemCtx(FastMemCtx* ctx) const;

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

  // Decoded-instruction cache (direct-mapped, indexed by pc >> 2). Empty when the
  // cache is disabled; icache_mask_ == 0 doubles as the "disabled" flag.
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

  // Superblock cache (direct-mapped, indexed by start pc >> 2). Empty when disabled;
  // sb_mask_ == 0 doubles as the "disabled" flag. Requires the decode cache: blocks
  // are built from, and validated against, its entries.
  MappedArray<SuperblockEntry> sblocks_;
  uint64_t sb_mask_ = 0;
  uint64_t sb_hits_ = 0;
  uint64_t sb_misses_ = 0;
  uint64_t sb_blocks_ = 0;
  uint64_t sb_instrs_ = 0;
  uint64_t sb_builds_ = 0;
  uint64_t sb_deopts_ = 0;
  uint64_t fastmem_hits_ = 0;
  uint64_t fastmem_misses_ = 0;

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
