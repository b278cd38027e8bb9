// Physical memory bus: RAM regions plus MMIO device windows. The bus performs no
// protection checks — PMP and paging live in the hart (src/sim) and the monitor; the
// bus only routes physical accesses.
//
// Two interpreter-hot-path services live here (DESIGN.md §2b/§2c):
//  - a RAM fast path: Read/Write are inlined bounds checks against the primary RAM
//    region, falling back to the ordered region/window scan only for secondary
//    regions and MMIO;
//  - dependency tracking for the harts' translation-layer caches: each 4 KiB RAM
//    page carries a mark bitmask recording which cache classes depend on its bytes —
//    exec marks (decoded-instruction cache: instruction bytes and the PTEs a cached
//    fetch walk read) and page-table marks (software TLB: every PTE page a cached
//    translation read). Exec marks also record which 64-byte lines of the page the
//    decodes read. A store into a PT-marked page, or into a marked line of an
//    exec-marked page, bumps the matching generation counter (`pt_generation()` /
//    `code_generation()`), invalidating every dependent cache entry at once; caches
//    re-mark as they refill.

#ifndef SRC_MEM_BUS_H_
#define SRC_MEM_BUS_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/mapped_array.h"
#include "src/mem/cow.h"

namespace vfm {

class StateReader;
class StateWriter;

enum class AccessType : uint8_t {
  kFetch = 0,
  kLoad = 1,
  kStore = 2,
};

inline const char* AccessTypeName(AccessType type) {
  switch (type) {
    case AccessType::kFetch:
      return "fetch";
    case AccessType::kLoad:
      return "load";
    case AccessType::kStore:
      return "store";
  }
  return "?";
}

// Interface implemented by memory-mapped devices. Offsets are relative to the device's
// base address. `size` is 1, 2, 4, or 8. Returns false on an access the device
// rejects, which the hart reports as an access fault.
//
// Devices also participate in whole-machine snapshots (DESIGN.md §2h) through the
// uniform state API: SaveState emits the device's architectural state as one tagged
// section, LoadState restores it. The defaults are no-ops so stateless devices and
// test doubles need nothing.
class MmioDevice {
 public:
  virtual ~MmioDevice() = default;
  virtual const char* name() const = 0;
  virtual bool MmioRead(uint64_t offset, unsigned size, uint64_t* value) = 0;
  virtual bool MmioWrite(uint64_t offset, unsigned size, uint64_t value) = 0;
  virtual void SaveState(StateWriter& writer) const;
  virtual bool LoadState(StateReader& reader);
};

// A contiguous RAM region. Backing is a host-page-aligned mmap (heap fallback where
// mmap is unavailable), so snapshots can hold RAM as page-granular copy-on-write
// references: Freeze() detaches the current contents into an immutable refcounted
// RamImage and leaves the region a private (CoW) view of it; AdoptImage() rebinds
// the region to an image without copying. data() never moves across either.
class Ram {
 public:
  static constexpr uint64_t kPageShift = 12;
  static constexpr uint64_t kLineShift = 6;   // exec-mark line: 64 bytes, 64 per page
  static constexpr uint64_t kGroupShift = 6;  // mark summary group: 64 pages
  // Mark classes in a page's mark byte. Exec marks back the decoded-instruction
  // caches; PT marks back the software TLBs (src/sim/hart.h).
  static constexpr uint8_t kExecMark = 1 << 0;
  static constexpr uint8_t kPtMark = 1 << 1;

  Ram(uint64_t base, uint64_t size);
  ~Ram();
  Ram(const Ram&) = delete;
  Ram& operator=(const Ram&) = delete;

  uint64_t base() const { return base_; }
  uint64_t size() const { return size_; }
  bool Contains(uint64_t addr, unsigned access_size) const {
    return addr >= base_ && addr + access_size <= base_ + size_;
  }

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }

  // -- Dependency marks (DESIGN.md §2b; see Bus::MarkExecLine / Bus::MarkPtPage). ----
  // Per 4 KiB page: a mark byte of kExecMark/kPtMark classes and, for exec-marked
  // pages, a mask of the 64-byte lines cached decodes read (bit i covers bytes
  // [64i, 64i + 64)). A summary bitmap records which 64-page groups hold any mark,
  // so clearing visits only those. Mark bytes and line masks live in lazily
  // zero-filled mappings: only the parts that were ever marked cost resident
  // memory, and constructing a region (every Machine::Fork) touches neither.
  uint8_t* page_marks() { return page_marks_.data(); }
  uint64_t page_count() const { return page_marks_.size(); }
  // Adds `mark` to the page holding byte `offset`; an exec mark also marks the
  // byte's line. Relaxed atomic ORs: hart segments mark concurrently, and marks are
  // only read or cleared at serial points (DESIGN.md §2i).
  void Mark(uint64_t offset, uint8_t mark);
  // The mark classes a store to [offset, offset + size) invalidates: PT marks of
  // every page it touches, exec marks only where it overlaps a marked line.
  uint8_t StoreHits(uint64_t offset, uint64_t size) const;
  // Removes the `classes` bits, and with kExecMark the line masks, from every
  // marked page. Returns whether any mark of any class remains.
  bool ClearMarks(uint8_t classes);

  // -- Snapshot support (DESIGN.md §2h). --------------------------------------------
  // Captures the current contents as an immutable CoW image. O(1) when the region is
  // an unmodified view of a previously frozen/adopted image (the refcount is all
  // that moves) and when the region still owns its original mapping (the backing
  // transfers, no bytes copied); O(size) only when a CoW view has been written to
  // since. The region remains fully writable and data() is unchanged.
  std::shared_ptr<RamImage> Freeze();
  // Replaces the contents with `image` (whose size must match). When both sides are
  // mmap-backed no bytes are copied — the region becomes a private view and pages
  // materialize on first write. Page marks are untouched (the caller owns mark
  // policy on restore).
  void AdoptImage(std::shared_ptr<RamImage> image);
  // Conservative dirty tracking for Freeze()'s O(1) reuse: any path that may have
  // modified RAM sets this; Freeze clears it.
  void SetMaybeDirty() { maybe_dirty_ = true; }

 private:
  uint64_t map_size() const;

  uint64_t base_;
  uint64_t size_;
  uint8_t* data_ = nullptr;
  bool mapped_ = false;              // data_ is an mmap (vs. pointing into heap_)
  int owned_fd_ = -1;                // memfd behind an owned MAP_SHARED mapping
  std::shared_ptr<RamImage> image_;  // set while data_ is a private view of it
  bool maybe_dirty_ = true;
  std::vector<uint8_t> heap_;        // fallback backing when mmap is unavailable
  MappedArray<uint8_t> page_marks_;
  MappedArray<uint64_t> exec_lines_;  // per page; non-zero only on exec-marked pages
  std::vector<uint64_t> mark_groups_;  // bit g set while page group g holds a mark
};

// The physical bus: an ordered set of RAM regions and MMIO windows.
class Bus {
 public:
  static constexpr uint8_t kExecMark = Ram::kExecMark;
  static constexpr uint8_t kPtMark = Ram::kPtMark;

  // Adds a RAM region. Regions must not overlap.
  Ram* AddRam(uint64_t base, uint64_t size);

  // Maps `device` at [base, base+size). The bus does not own the device.
  void AddMmio(uint64_t base, uint64_t size, MmioDevice* device);

  // Physical read/write. Returns false for unmapped addresses or device-rejected
  // accesses. Values are little-endian, zero-extended into *value. The common case
  // (the primary RAM region) is a single bounds check and memcpy.
  bool Read(uint64_t addr, unsigned size, uint64_t* value) {
    const uint64_t offset = addr - ram0_base_;
    if (offset < ram0_limit_ && offset + size <= ram0_limit_) {
      uint64_t v = 0;
      std::memcpy(&v, ram0_data_ + offset, size);
      *value = v;
      return true;
    }
    return ReadSlow(addr, size, value);
  }
  bool Write(uint64_t addr, unsigned size, uint64_t value) {
    const uint64_t offset = addr - ram0_base_;
    if (offset < ram0_limit_ && offset + size <= ram0_limit_) {
      // Both end bytes checked: a misaligned store may cross into a marked page.
      if ((ram0_marks_[offset >> Ram::kPageShift] |
           ram0_marks_[(offset + size - 1) >> Ram::kPageShift]) != 0) {
        InvalidateMarkedPages(ram0_region_->StoreHits(offset, size));
      }
      ram0_region_->SetMaybeDirty();
      std::memcpy(ram0_data_ + offset, &value, size);
      return true;
    }
    return WriteSlow(addr, size, value);
  }

  // Bulk access to RAM (image loading, hashing, DMA). Fails if the range is not
  // entirely inside one RAM region.
  bool ReadBytes(uint64_t addr, void* out, uint64_t size) const;
  bool WriteBytes(uint64_t addr, const void* data, uint64_t size);

  // True if [addr, addr+size) lies fully inside a single RAM region.
  bool IsRam(uint64_t addr, uint64_t size) const;

  // -- Dependency tracking (cache invalidation). ------------------------------------
  // Marks the 64-byte line containing `paddr`, and its page, as bytes a cached
  // decode depends on (an instruction word or a fetch-walk PTE: aligned, so never
  // split across lines). A store overlapping a marked line bumps code_generation()
  // and clears all exec marks (the harts' caches re-mark on refill); stores to the
  // page's other lines do not. The page-granular exec bit still routes every store
  // to the page through Bus::Write (see HostPage), and WriteBytes invalidates on it.
  // Addresses outside RAM are ignored.
  void MarkExecLine(uint64_t paddr);
  // Marks the page containing `paddr` as holding page-table entries a cached
  // translation read. Stores into PT-marked pages bump pt_generation() and clear all
  // PT marks. Returns false if the page is not RAM-backed (and therefore cannot be
  // tracked): the caller must not cache a translation whose PTEs it cannot watch.
  bool MarkPtPage(uint64_t paddr);
  uint64_t code_generation() const { return code_generation_; }
  uint64_t pt_generation() const { return pt_generation_; }
  // Bumped whenever the set of RAM regions changes (AddRam). Folded into the harts'
  // TLB stamps so cached host pointers (HostPage) can never survive a remap.
  uint64_t ram_generation() const { return ram_generation_; }

  // Host-pointer view of one whole 4 KiB RAM frame (the harts' in-block memory fast
  // path, DESIGN.md §2f). On success, *data points at the frame's bytes and *marks at
  // its dependency-mark byte (a fast store must take the slow path while the mark
  // byte is non-zero, so Bus::Write decides exactly which stores bump a generation).
  // Fails when the frame is not fully contained in one page-aligned RAM region.
  // Returned pointers stay valid for the life of the Bus — regions never move or
  // shrink — and ram_generation() guards consumers against future region changes.
  bool HostPage(uint64_t paddr, uint8_t** data, const uint8_t** marks) const;

  // Counts every access dispatched to an MMIO window (reads and writes, including
  // rejected ones). The batched run loop uses this to detect device interaction,
  // which ends a batch (src/sim/machine.cc).
  uint64_t mmio_ops() const { return mmio_ops_; }

  // Barrier-ordering debug gate for quantum/parallel multi-hart execution
  // (DESIGN.md §2i): while `gate` points at a true flag, any MMIO dispatch aborts
  // via VFM_CHECK. The Machine raises the flag around hart segments — segments must
  // buffer stores and abort on MMIO, so a device access reaching the bus mid-segment
  // is an ordering bug, turned into an immediate failure instead of a cosim
  // divergence. Pass nullptr to remove the gate.
  void SetMmioBarrierGate(const bool* gate) { mmio_gate_ = gate; }

  // Returns the MMIO window covering addr, or nullptr. Used by the monitor to identify
  // which virtual device an intercepted access targets.
  struct MmioWindow {
    uint64_t base;
    uint64_t size;
    MmioDevice* device;
  };
  const MmioWindow* FindMmio(uint64_t addr) const;

  const std::vector<MmioWindow>& mmio_windows() const { return mmio_; }

  // -- Snapshot support (DESIGN.md §2h). --------------------------------------------
  // Freezes every RAM region into CoW images, appended to *images in region order.
  void FreezeRam(std::vector<std::shared_ptr<RamImage>>* images);
  // Rebinds every RAM region to the matching image (region order; count and sizes
  // must match the bus's regions). Clears all dependency marks: the caller is
  // restoring into a machine whose translation caches are being reset wholesale, so
  // marks rebuild from scratch as caches refill.
  void AdoptRam(const std::vector<std::shared_ptr<RamImage>>& images);
  // Marks all RAM regions possibly-modified (host-pointer stores bypass Bus::Write,
  // so run loops call this conservatively on entry).
  void SetRamMaybeDirty();
  // Saves/loads the bus's own snapshot section: region geometry (verified on load)
  // and the dependency-mark state. Generation counters are deliberately NOT
  // restored — they are host-side monotonic clocks, and restoring one backward
  // could make a stale cached stamp compare equal again. Loading clears all marks
  // instead (see AdoptRam).
  void SaveState(StateWriter& writer) const;
  bool LoadState(StateReader& reader);

 private:
  const Ram* FindRam(uint64_t addr, uint64_t size) const;
  bool ReadSlow(uint64_t addr, unsigned size, uint64_t* value);
  bool WriteSlow(uint64_t addr, unsigned size, uint64_t value);
  // Bumps the generation counter of every mark class present in `marks` and clears
  // that class's marks from every page (other classes' marks are preserved). No-op
  // when `marks` is 0, as for a store to an exec-marked page's unmarked lines.
  void InvalidateMarkedPages(uint8_t marks);

  std::vector<std::unique_ptr<Ram>> ram_;
  std::vector<MmioWindow> mmio_;

  // Primary-region fast path: initialized to an empty range so the inline checks
  // fail closed before any AddRam.
  uint64_t ram0_base_ = ~uint64_t{0};
  uint64_t ram0_limit_ = 0;  // == ram0 size; 0 until the first AddRam
  uint8_t* ram0_data_ = nullptr;
  uint8_t* ram0_marks_ = nullptr;
  Ram* ram0_region_ = nullptr;

  uint64_t code_generation_ = 0;
  uint64_t pt_generation_ = 0;
  uint64_t ram_generation_ = 0;
  // Set by MarkExecLine/MarkPtPage, which hart segments call concurrently while
  // filling their caches (the mark bytes themselves are set with relaxed atomic OR);
  // consumed only at serial points.
  std::atomic<bool> any_marks_{false};
  uint64_t mmio_ops_ = 0;
  const bool* mmio_gate_ = nullptr;
};

}  // namespace vfm

#endif  // SRC_MEM_BUS_H_
