#include "src/dev/plic.h"

#include "src/common/check.h"

namespace vfm {

Plic::Plic(unsigned hart_count) : hart_count_(hart_count), enable_(hart_count, 0) {
  for (unsigned i = 0; i < kMaxSources; ++i) {
    priority_[i] = 1;  // sources default enabled-priority so tests stay simple
  }
  priority_[0] = 0;
  RebuildPriorityMask();
}

uint32_t Plic::ClaimableMask(unsigned hart) const {
  // priority_mask_ caches which sources have nonzero priority (priority 0 masks).
  return pending_ & ~claimed_ & enable_[hart] & priority_mask_;
}

void Plic::RebuildPriorityMask() {
  priority_mask_ = 0;
  for (unsigned src = 1; src < kMaxSources; ++src) {
    if (priority_[src] != 0) {
      priority_mask_ |= uint32_t{1} << src;
    }
  }
}

bool Plic::SeipPending(unsigned hart) const { return ClaimableMask(hart) != 0; }

void Plic::RaiseSource(unsigned source) {
  VFM_CHECK(source > 0 && source < kMaxSources);
  pending_ |= uint32_t{1} << source;
}

void Plic::ClearSource(unsigned source) {
  VFM_CHECK(source > 0 && source < kMaxSources);
  pending_ &= ~(uint32_t{1} << source);
}

bool Plic::MmioRead(uint64_t offset, unsigned size, uint64_t* value) {
  if (size != 4) {
    return false;
  }
  if (offset < 4 * kMaxSources) {
    *value = priority_[offset / 4];
    return true;
  }
  if (offset == 0x1000) {
    *value = pending_;
    return true;
  }
  if (offset >= 0x2000 && offset < 0x2000 + 0x80 * hart_count_ && (offset - 0x2000) % 0x80 == 0) {
    *value = enable_[(offset - 0x2000) / 0x80];
    return true;
  }
  if (offset >= 0x200004 && (offset - 0x200004) % 0x1000 == 0) {
    const unsigned hart = static_cast<unsigned>((offset - 0x200004) / 0x1000);
    if (hart >= hart_count_) {
      return false;
    }
    const uint32_t mask = ClaimableMask(hart);
    if (mask == 0) {
      *value = 0;
      return true;
    }
    unsigned src = 1;
    while ((mask & (uint32_t{1} << src)) == 0) {
      ++src;
    }
    claimed_ |= uint32_t{1} << src;
    *value = src;
    return true;
  }
  *value = 0;
  return offset < kSize;
}

bool Plic::MmioWrite(uint64_t offset, unsigned size, uint64_t value) {
  if (size != 4) {
    return false;
  }
  if (offset < 4 * kMaxSources) {
    priority_[offset / 4] = static_cast<uint32_t>(value);
    RebuildPriorityMask();
    return true;
  }
  if (offset >= 0x2000 && offset < 0x2000 + 0x80 * hart_count_ && (offset - 0x2000) % 0x80 == 0) {
    enable_[(offset - 0x2000) / 0x80] = static_cast<uint32_t>(value);
    return true;
  }
  if (offset >= 0x200004 && (offset - 0x200004) % 0x1000 == 0) {
    const unsigned hart = static_cast<unsigned>((offset - 0x200004) / 0x1000);
    if (hart >= hart_count_) {
      return false;
    }
    const unsigned src = static_cast<unsigned>(value);
    if (src > 0 && src < kMaxSources) {
      claimed_ &= ~(uint32_t{1} << src);
    }
    return true;
  }
  return offset < kSize;
}

}  // namespace vfm
