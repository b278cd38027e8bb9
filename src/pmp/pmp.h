// Physical Memory Protection (PMP) semantics, shared between the hart simulator, the
// monitor's virtual-PMP multiplexer, and the reference model. This module owns the
// cfg/addr register encoding, WARL legalization, and the access-check algorithm from
// the privileged spec (the pmpCheck analog the paper verifies against, §6.4).

#ifndef SRC_PMP_PMP_H_
#define SRC_PMP_PMP_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/common/state.h"
#include "src/isa/priv.h"
#include "src/mem/bus.h"

namespace vfm {

// Address-matching modes in pmpcfg.A.
enum class PmpAddrMode : uint8_t {
  kOff = 0,
  kTor = 1,
  kNa4 = 2,
  kNapot = 3,
};

// One pmpcfg byte, unpacked.
struct PmpCfg {
  bool r = false;
  bool w = false;
  bool x = false;
  PmpAddrMode a = PmpAddrMode::kOff;
  bool locked = false;

  static PmpCfg FromByte(uint8_t byte);
  uint8_t ToByte() const;

  bool Permits(AccessType type) const {
    switch (type) {
      case AccessType::kFetch:
        return x;
      case AccessType::kLoad:
        return r;
      case AccessType::kStore:
        return w;
    }
    return false;
  }
};

// Legalizes a pmpcfg byte write per the WARL rules this library implements uniformly:
//  - bits 5 and 6 always read zero;
//  - the reserved combination R=0,W=1 keeps the previous value of the entry
//    (matching the reference Sail model's behaviour the paper checks against).
uint8_t LegalizePmpCfgByte(uint8_t old_byte, uint8_t new_byte);

// The address range an active PMP entry matches: [base, limit) in byte addresses.
struct PmpRange {
  uint64_t base = 0;
  uint64_t limit = 0;  // exclusive; 0 with base 0 means empty

  bool Contains(uint64_t addr, uint64_t size) const {
    return addr >= base && size <= limit - addr && addr < limit;
  }
  bool Overlaps(uint64_t addr, uint64_t size) const {
    return addr < limit && base < addr + size;
  }
};

// Decodes the byte range matched by entry `index` given its cfg and the addr registers.
// `prev_addr` is pmpaddr[index-1] (0 for entry 0), needed for TOR. Returns nullopt for
// OFF entries or empty TOR ranges.
std::optional<PmpRange> DecodePmpRange(PmpCfg cfg, uint64_t addr, uint64_t prev_addr);

// A bank of PMP entries as architected state, with WARL-legalizing CSR accessors.
class PmpBank : public ListedState<PmpBank> {
 public:
  static constexpr unsigned kMaxEntries = 64;
  // Layout of epoch(): the top 16 bits hold the id of the bank's current contents,
  // and the bits below (kEpochCountMask) count how often the id space has started
  // over.
  static constexpr unsigned kEpochIdShift = 48;
  static constexpr uint64_t kEpochCountMask = (uint64_t{1} << kEpochIdShift) - 1;

  // A whole bank's raw contents (cfg bytes and pmpaddr values), staged by the monitor
  // and installed at once, so that a reconfiguration interns one set of contents.
  struct Contents {
    uint8_t cfg[kMaxEntries] = {};
    uint64_t addr[kMaxEntries] = {};
  };

  explicit PmpBank(unsigned entry_count);

  unsigned entry_count() const { return entry_count_; }

  // CSR-level access. `reg_index` is the pmpcfg register number (even on RV64: 0, 2,
  // 4, ...); each holds 8 cfg bytes. Writes apply WARL legalization and respect locks.
  uint64_t ReadCfgReg(unsigned reg_index) const;
  void WriteCfgReg(unsigned reg_index, uint64_t value);
  uint64_t ReadAddrReg(unsigned index) const;
  void WriteAddrReg(unsigned index, uint64_t value);

  // Direct (non-WARL) access used by tests constructing states.
  PmpCfg GetCfg(unsigned index) const;
  void SetCfg(unsigned index, PmpCfg cfg);
  uint64_t GetAddr(unsigned index) const { return contents_.addr[index]; }
  void SetAddr(unsigned index, uint64_t value);

  // Whole-bank access, used by the monitor to install a computed physical
  // configuration (entries [0, entry_count()); no WARL, no locks).
  const Contents& contents() const { return contents_; }
  void Install(const Contents& contents);

  // Names the bank's current contents. Every write above interns the contents it
  // leaves in a small table: contents equal to ones the table holds get their word
  // back, and contents it does not hold get a word never handed out before. When the
  // ids run out (or the bank is loaded), the table empties and the count below the
  // id moves up, so the count never decreases and no earlier word comes back. Id 0
  // is never handed out, so a word is never 0. The hart's caches key on the word
  // (src/sim/hart.h): a decoded fetch, a block, a TLB entry (a walk PMP-checks
  // every PTE read) or a PMP window is valid only while the bank holds the contents
  // it was filled under, so a monitor that alternates between a few configurations
  // keeps each one's entries cached. Words name contents of this bank only.
  uint64_t epoch() const { return epoch_; }

  // The access check from the privileged spec: returns true if an access of `size`
  // bytes at `addr` by privilege `mode` is permitted. All bytes must lie within the
  // highest-priority (lowest-numbered) matching entry; a partial match denies. In
  // M-mode only locked entries constrain; with no match, M-mode allows and S/U-mode
  // denies (entries are implemented). This mirrors the Sail pmpCheck the paper uses.
  bool Check(uint64_t addr, uint64_t size, AccessType type, PrivMode mode) const;

  // The widest range around `addr` in which one entry decides every access of `type`
  // by `mode` (or no entry matches and the no-match rule decides), and permits it:
  // Check(a, size, type, mode) holds for every [a, a + size) inside the result. The
  // range stops at every higher-priority entry that does not match `addr`, since an
  // access overlapping one would match it first. It is empty (base == limit) exactly
  // when Check(addr, 1, type, mode) is false; otherwise it contains `addr` (the top
  // byte of the address space excepted: `limit` is exclusive). The block executor
  // caches one per privilege and access type (DESIGN.md §2f).
  PmpRange PermittedWindow(uint64_t addr, AccessType type, PrivMode mode) const;

  // Returns the index of the first entry whose range contains the first byte of the
  // access, or nullopt. Used by the monitor to attribute MMIO traps to devices.
  std::optional<unsigned> FirstMatch(uint64_t addr) const;

  std::string Describe() const;

  // Uniform state API (DESIGN.md §2h): the entry count, then each entry's cfg byte
  // and address. A load empties the intern table and moves epoch() past every word
  // the bank handed out before, so nothing cached under the bank's earlier contents
  // survives a restore.
  template <typename Io>
  void VisitState(Io& io) {
    io.BeginSection(StateTag("PMPB"), 1);
    uint32_t count = entry_count_;
    io.U32(count);
    io.Require(count == entry_count_, "pmp entry count mismatch");
    for (unsigned i = 0; i < entry_count_; ++i) {
      io.U8(contents_.cfg[i]);
      io.U64(contents_.addr[i]);
    }
    io.EndSection();
    if constexpr (Io::kLoading) {
      ResetIds();
      Install(contents_);
    }
  }

 private:
  static constexpr uint64_t kAddrMask = (uint64_t{1} << 54) - 1;  // addr[55:2]
  // The intern table: a few recently held contents of a bank of at most
  // kInternEntries entries (a larger bank gets a new word on every write).
  static constexpr unsigned kInternSlots = 4;
  static constexpr unsigned kInternEntries = 16;

  // Decoded-range cache: rebuilding on modification keeps the per-access check a
  // simple array scan (the check runs on every simulated memory access).
  struct CachedEntry {
    bool active = false;
    PmpRange range;
    PmpCfg cfg;
  };
  void RebuildCache() const;

  struct InternSlot {
    uint64_t epoch = 0;  // 0: empty
    uint64_t last_use = 0;
    uint8_t cfg[kInternEntries] = {};
    uint64_t addr[kInternEntries] = {};
  };
  // Sets epoch() for the contents just written.
  void Intern();
  // Starts the id space over: empties the table and moves next_epoch_ to id 1 of
  // the next count.
  void ResetIds();

  unsigned entry_count_;
  uint64_t epoch_ = 0;
  Contents contents_;
  mutable CachedEntry cache_[kMaxEntries];
  mutable bool cache_valid_ = false;
  // The next word to hand out. Its id wrapping to 0 means the ids ran out.
  uint64_t next_epoch_ = uint64_t{1} << kEpochIdShift;
  uint64_t use_clock_ = 0;
  InternSlot interned_[kInternSlots];
};

}  // namespace vfm

#endif  // SRC_PMP_PMP_H_
