// The virtual CLINT: the only MMIO device the monitor must emulate (paper §4.3). It
// multiplexes the machine timer and software interrupts between the monitor (which
// uses them for the OS fast path) and the virtual firmware. Its msip and mtimecmp
// registers and their MMIO decode are a second instance of the CLINT device model
// (src/dev/clint), which firmware loads/stores that trap on the protected window
// reach; only mtime is the physical device's. Every mtime the monitor reads comes
// from Clint::SyncedTime, so on a single-hart machine it is the exact time of the
// hart's clock, as a native read would see, not the counter the run loop last stored.

#ifndef SRC_CORE_VCLINT_H_
#define SRC_CORE_VCLINT_H_

#include <algorithm>
#include <cstdint>

#include "src/dev/clint.h"

namespace vfm {

class VirtClint {
 public:
  VirtClint(Clint* phys, unsigned hart_count);

  // Firmware-visible MMIO emulation. `offset` is relative to the CLINT base. Reads of
  // mtime pass through to the physical timer and writes to it are dropped;
  // mtimecmp/msip hit the virtual registers. Returns false for offsets/sizes the real
  // device would reject.
  bool Read(uint64_t offset, unsigned size, uint64_t* value);
  bool Write(uint64_t offset, unsigned size, uint64_t value);

  // The physical time, synced (Clint::SyncedTime): not const, because the read pulls
  // the physical counter forward to the hart's clock first.
  uint64_t mtime() { return phys_->SyncedTime(); }
  uint64_t virtual_mtimecmp(unsigned hart) const { return regs_.mtimecmp(hart); }
  void set_virtual_mtimecmp(unsigned hart, uint64_t value) { regs_.set_mtimecmp(hart, value); }
  bool virtual_msip(unsigned hart) const { return regs_.msip(hart); }
  void set_virtual_msip(unsigned hart, bool value) { regs_.set_msip(hart, value); }

  // Whether the firmware's virtual timer / software interrupt is pending.
  bool VirtualMtip(unsigned hart) { return mtime() >= regs_.mtimecmp(hart); }
  bool VirtualMsip(unsigned hart) const { return regs_.msip(hart); }

  // The deadline the physical comparator must be programmed to so that the monitor
  // observes both the firmware's virtual deadline and the OS deadline it manages for
  // the fast path (os_deadline = ~0 when the fast path owns no timer).
  uint64_t PhysicalDeadline(unsigned hart, uint64_t os_deadline) const {
    return std::min(regs_.mtimecmp(hart), os_deadline);
  }

  unsigned hart_count() const { return regs_.hart_count(); }

  // Uniform state API (DESIGN.md §2h): the virtual registers' CLINT section. The
  // physical CLINT pointer is wiring; mtime lives in the physical device's section.
  template <typename Io>
  void VisitState(Io& io) {
    regs_.VisitState(io);
  }

 private:
  Clint* phys_;
  // The virtual registers. Read stages the physical mtime in the copy's counter
  // before decoding, so a firmware mtime read returns the physical time.
  Clint regs_;
};

}  // namespace vfm

#endif  // SRC_CORE_VCLINT_H_
