#include "src/core/vclint.h"

namespace vfm {

VirtClint::VirtClint(Clint* phys, unsigned hart_count) : phys_(phys), regs_(hart_count) {}

bool VirtClint::Read(uint64_t offset, unsigned size, uint64_t* value) {
  regs_.set_mtime(mtime());
  return regs_.MmioRead(offset, size, value);
}

bool VirtClint::Write(uint64_t offset, unsigned size, uint64_t value) {
  // Firmware writes to mtime are filtered: the monitor never lets the deprivileged
  // firmware warp the global clock (access control to system resources, §3.3).
  if (offset == Clint::kMtimeOffset) {
    return true;
  }
  return regs_.MmioWrite(offset, size, value);
}

}  // namespace vfm
