// Static configuration of a simulated hart and the machine's cost model. Platform
// profiles (src/platform) instantiate these to model the two evaluation boards.

#ifndef SRC_SIM_CONFIG_H_
#define SRC_SIM_CONFIG_H_

#include <cstdint>

namespace vfm {

// Architectural feature set of a hart. Defaults model the evaluation platforms in the
// paper: no hardware `time` CSR (reads trap and are emulated by firmware), no Sstc, and
// misaligned loads/stores trap for firmware emulation (paper §3.4's five trap causes).
struct HartIsaConfig {
  unsigned pmp_entries = 8;
  bool has_time_csr = false;      // rdtime reads mtime directly instead of trapping
  bool has_sstc = false;          // stimecmp CSR + hardware supervisor timer
  bool has_h_ext = false;         // minimal hypervisor extension subset
  bool has_custom_csrs = false;   // platform CSRs 0x7C0..0x7C3 (P550-style)
  bool hw_misaligned = false;     // hardware handles misaligned loads/stores
  uint64_t mvendorid = 0;
  uint64_t marchid = 0;
  uint64_t mimpid = 0;
};

// Host-side interpreter tuning. None of these affect simulated behaviour or cycle
// accounting — they only trade host memory for host speed (DESIGN.md §2b). The one
// scoped exception is max_batch_instructions on multi-hart machines, where it sizes
// the quantum, a guest-visible schedule point (see below).
struct SimTuning {
  // Entries in the per-hart decoded-instruction cache (direct-mapped, indexed by
  // pc >> 2). Must be a power of two; 0 disables the cache entirely.
  uint32_t decode_cache_entries = 16384;
  // Upper bound on instructions executed per Hart::RunBatch call from the run loop
  // (Machine::RunUntilFinished, RunSlice; 0 means 1). Batches also end early at
  // trap, interrupt-window (mtime tick), WFI, and MMIO boundaries, which is what
  // keeps a single hart's batched execution cycle-exact with per-instruction
  // stepping. On a multi-hart machine it caps the segment each hart runs per
  // quantum (DESIGN.md §2i); quantum boundaries are where harts observe each
  // other, so there the cap is part of the deterministic schedule.
  uint32_t max_batch_instructions = 4096;
  // Entries per access type in the per-hart software TLB (direct-mapped, indexed by
  // virtual page number). Must be a power of two; 0 disables the TLB. Like the decode
  // cache, hits replay the walk's cycle cost, so this never changes simulated
  // behaviour.
  uint32_t tlb_entries = 4096;
  // Entries in the per-hart superblock cache (DESIGN.md §2f): straight-line runs of
  // already-decoded instructions, lowered when built into pre-resolved ops that one
  // computed-goto executor dispatches, spilling architectural counters only at block
  // exits. Lowering bakes in the exact cycle charges of the interpreter path, so
  // blocks are behaviour- and cycle-invisible. Direct-mapped by start pc >> 2;
  // rounded up to a power of two; 0 disables. Blocks are built from decode-cache
  // entries, so they are also implicitly disabled when decode_cache_entries == 0.
  uint32_t superblock_entries = 2048;
  // Lets long quanta run each hart's segment on its own host thread (DESIGN.md
  // §2i): a quantum goes to the worker pool only when its segments may run at least
  // Machine::kMinPooledSegment instructions, and shorter ones run in hart order on
  // the calling thread. Never changes behaviour: segments only read frozen shared
  // state, so the worker pool is bit-identical to running the segments serially in
  // hart order. Ignored on single-hart machines.
  bool parallel_harts = false;
};

// Cycle-cost model. The simulator is not micro-architecturally accurate; these
// parameters set the relative costs that the paper's measurements depend on (trap
// round-trip cost, CSR access cost, memory cost), so each platform profile produces
// its own absolute numbers while preserving the result shapes.
// Machine requires instr_base >= 1 (the block executor's budget compare counts on every
// instruction charging a cycle) and mtime_tick_cycles >= 1.
struct CostModel {
  uint64_t instr_base = 1;        // cycles per simple instruction
  uint64_t instr_muldiv = 8;      // extra cycles for mul/div
  uint64_t instr_mem = 2;         // extra cycles for loads/stores/amo
  uint64_t trap_entry = 40;       // pipeline cost of a trap or xRET
  uint64_t page_walk_level = 8;   // per level of a Sv39 table walk (uncached)
  uint64_t hal_csr_access = 4;    // monitor HAL: one CSR read/write
  uint64_t monitor_dispatch = 40; // monitor entry/exit + trap decode, per M-mode trap
  uint64_t hal_mem_access = 3;    // monitor HAL: one memory word access
  uint64_t hal_base_op = 1;       // monitor HAL: bookkeeping unit of work
  uint64_t tlb_flush = 60;        // sfence.vma / world-switch TLB flush
  uint64_t mtime_tick_cycles = 50;  // CPU cycles per mtime (timebase) tick
  uint64_t freq_mhz = 1000;       // nominal core frequency, for reporting only
};

}  // namespace vfm

#endif  // SRC_SIM_CONFIG_H_
