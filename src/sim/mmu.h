// Sv39 address translation. The walker reads page tables through the physical bus and
// PMP-checks every page-table access (the property the monitor's MPRV emulation relies
// on: a hostile OS cannot route the walker around PMP).

#ifndef SRC_SIM_MMU_H_
#define SRC_SIM_MMU_H_

#include <cstdint>
#include <optional>

#include "src/isa/priv.h"
#include "src/mem/bus.h"
#include "src/pmp/pmp.h"

namespace vfm {

// Sv39 PTE bits.
struct PteBits {
  static constexpr uint64_t kValid = 1 << 0;
  static constexpr uint64_t kRead = 1 << 1;
  static constexpr uint64_t kWrite = 1 << 2;
  static constexpr uint64_t kExec = 1 << 3;
  static constexpr uint64_t kUser = 1 << 4;
  static constexpr uint64_t kGlobal = 1 << 5;
  static constexpr uint64_t kAccessed = 1 << 6;
  static constexpr uint64_t kDirty = 1 << 7;
};

struct TranslateParams {
  uint64_t satp = 0;
  PrivMode priv = PrivMode::kSupervisor;  // effective privilege of the access
  bool sum = false;                       // mstatus.SUM
  bool mxr = false;                       // mstatus.MXR
};

struct TranslateResult {
  bool ok = false;
  uint64_t paddr = 0;
  ExceptionCause fault = ExceptionCause::kLoadPageFault;  // valid when !ok
  unsigned walk_levels = 0;                               // cost accounting
  // Set (with ok == false) when a PtAccessor declined a page-table access: the walk
  // hit memory the accessor cannot model (quantum-mode segments decline non-RAM PTE
  // addresses). Not an architectural fault — the caller must re-run the access at a
  // point where the accessor can serve it (DESIGN.md §2i).
  bool segment_abort = false;
  // Physical addresses of the PTEs read during the walk. The decoded-instruction
  // cache exec-marks these pages so that a later store into a page table invalidates
  // any decode whose fetch translation it produced, and the software TLB PT-marks
  // them so the same store invalidates cached translations (src/sim/hart.cc).
  uint64_t pte_addrs[3] = {};
  unsigned pte_count = 0;
};

// Routes the walker's page-table memory accesses. When installed, every PTE read and
// A/D update goes through the accessor instead of straight to the bus; returning
// false aborts the walk with TranslateResult::segment_abort. Quantum-mode hart
// segments use this to overlay their private store buffer on PTE reads and to buffer
// A/D updates until the barrier (DESIGN.md §2i).
class PtAccessor {
 public:
  virtual ~PtAccessor() = default;
  virtual bool ReadPte(uint64_t pte_addr, uint64_t* pte) = 0;
  virtual bool WritePte(uint64_t pte_addr, uint64_t pte) = 0;
};

// True when TranslateSv39 returns `vaddr` unchanged for every address: bare satp
// (or vsatp) or effective M-mode. The block executor's identity fast path (DESIGN.md
// §2f) engages on exactly this predicate, so the two can never disagree.
inline bool IdentityTranslation(uint64_t satp, PrivMode priv) {
  return (satp >> SatpBits::kModeLo) == SatpBits::kModeBare || priv == PrivMode::kMachine;
}

// Translates `vaddr` for an access of type `type`. Returns a page fault (of the
// matching flavor) on any walk failure, non-canonical address, or permission
// violation. Updates A/D bits in memory (hardware-update behavior). PMP failures
// during the walk surface as access faults via `fault`. When `pt` is non-null,
// page-table memory accesses are routed through it (see PtAccessor).
TranslateResult TranslateSv39(Bus* bus, const PmpBank& pmp, const TranslateParams& params,
                              uint64_t vaddr, AccessType type, PtAccessor* pt = nullptr);

// Maps an access type to its page-fault cause.
ExceptionCause PageFaultFor(AccessType type);
// Maps an access type to its access-fault cause.
ExceptionCause AccessFaultFor(AccessType type);
// Maps an access type to its misaligned cause.
ExceptionCause MisalignedFor(AccessType type);

}  // namespace vfm

#endif  // SRC_SIM_MMU_H_
