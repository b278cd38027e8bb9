#include "src/dev/clint.h"

#include "src/common/bits.h"

namespace vfm {

Clint::Clint(unsigned hart_count) : mtimecmp_(hart_count, ~uint64_t{0}), msip_(hart_count, false) {}

bool Clint::MmioRead(uint64_t offset, unsigned size, uint64_t* value) {
  const unsigned harts = hart_count();
  if (offset >= kMsipBase && offset < kMsipBase + 4 * harts) {
    if (size != 4 || !IsAligned(offset, 4)) {
      return false;
    }
    *value = msip_[(offset - kMsipBase) / 4] ? 1 : 0;
    return true;
  }
  if (offset >= kMtimecmpBase && offset < kMtimecmpBase + 8 * harts) {
    const unsigned hart = static_cast<unsigned>((offset - kMtimecmpBase) / 8);
    const uint64_t reg = mtimecmp_[hart];
    if (size == 8 && IsAligned(offset, 8)) {
      *value = reg;
      return true;
    }
    if (size == 4 && IsAligned(offset, 4)) {
      *value = (offset % 8 == 0) ? (reg & 0xFFFFFFFF) : (reg >> 32);
      return true;
    }
    return false;
  }
  if (offset == kMtimeOffset && size == 8) {
    *value = SyncedTime();
    return true;
  }
  if (size == 4 && (offset == kMtimeOffset || offset == kMtimeOffset + 4)) {
    const uint64_t now = SyncedTime();
    *value = (offset == kMtimeOffset) ? (now & 0xFFFFFFFF) : (now >> 32);
    return true;
  }
  return false;
}

bool Clint::MmioWrite(uint64_t offset, unsigned size, uint64_t value) {
  const unsigned harts = hart_count();
  if (offset >= kMsipBase && offset < kMsipBase + 4 * harts) {
    if (size != 4 || !IsAligned(offset, 4)) {
      return false;
    }
    msip_[(offset - kMsipBase) / 4] = (value & 1) != 0;
    return true;
  }
  if (offset >= kMtimecmpBase && offset < kMtimecmpBase + 8 * harts) {
    const unsigned hart = static_cast<unsigned>((offset - kMtimecmpBase) / 8);
    if (size == 8 && IsAligned(offset, 8)) {
      mtimecmp_[hart] = value;
      return true;
    }
    if (size == 4 && IsAligned(offset, 4)) {
      uint64_t reg = mtimecmp_[hart];
      if (offset % 8 == 0) {
        reg = (reg & 0xFFFFFFFF00000000ull) | (value & 0xFFFFFFFF);
      } else {
        reg = (reg & 0xFFFFFFFFull) | (value << 32);
      }
      mtimecmp_[hart] = reg;
      return true;
    }
    return false;
  }
  if (offset == kMtimeOffset && size == 8) {
    mtime_ = value;
    return true;
  }
  return false;
}

}  // namespace vfm
