#include "src/pmp/pmp.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/common/bits.h"
#include "src/common/check.h"

namespace vfm {

PmpCfg PmpCfg::FromByte(uint8_t byte) {
  PmpCfg cfg;
  cfg.r = (byte & 0x01) != 0;
  cfg.w = (byte & 0x02) != 0;
  cfg.x = (byte & 0x04) != 0;
  cfg.a = static_cast<PmpAddrMode>((byte >> 3) & 0x3);
  cfg.locked = (byte & 0x80) != 0;
  return cfg;
}

uint8_t PmpCfg::ToByte() const {
  uint8_t byte = 0;
  byte |= r ? 0x01 : 0;
  byte |= w ? 0x02 : 0;
  byte |= x ? 0x04 : 0;
  byte |= static_cast<uint8_t>(static_cast<uint8_t>(a) << 3);
  byte |= locked ? 0x80 : 0;
  return byte;
}

uint8_t LegalizePmpCfgByte(uint8_t old_byte, uint8_t new_byte) {
  new_byte &= 0x9F;  // bits 5 and 6 are reserved, read as zero
  const bool r = (new_byte & 0x01) != 0;
  const bool w = (new_byte & 0x02) != 0;
  if (w && !r) {
    return old_byte;  // reserved combination: the write is ignored
  }
  return new_byte;
}

std::optional<PmpRange> DecodePmpRange(PmpCfg cfg, uint64_t addr, uint64_t prev_addr) {
  switch (cfg.a) {
    case PmpAddrMode::kOff:
      return std::nullopt;
    case PmpAddrMode::kTor: {
      const uint64_t base = prev_addr << 2;
      const uint64_t limit = addr << 2;
      if (base >= limit) {
        return std::nullopt;
      }
      return PmpRange{base, limit};
    }
    case PmpAddrMode::kNa4:
      return PmpRange{addr << 2, (addr << 2) + 4};
    case PmpAddrMode::kNapot: {
      const unsigned ones = CountTrailingOnes(addr);
      // addr = yyy...y0111...1 encodes a 2^(ones+3)-byte region.
      const uint64_t size = uint64_t{8} << ones;
      const uint64_t base = (addr & ~MaskLow(ones + 1)) << 2;
      return PmpRange{base, base + size};
    }
  }
  return std::nullopt;
}

PmpBank::PmpBank(unsigned entry_count) : entry_count_(entry_count) {
  VFM_CHECK_MSG(entry_count <= kMaxEntries, "too many PMP entries");
  Intern();
}

uint64_t PmpBank::ReadCfgReg(unsigned reg_index) const {
  VFM_DCHECK(reg_index % 2 == 0);
  const unsigned first = reg_index * 4;  // pmpcfg2i holds entries [8i, 8i+8)
  uint64_t value = 0;
  for (unsigned i = 0; i < 8; ++i) {
    const unsigned entry = first + i;
    if (entry < entry_count_) {
      value |= static_cast<uint64_t>(contents_.cfg[entry]) << (8 * i);
    }
  }
  return value;
}

void PmpBank::WriteCfgReg(unsigned reg_index, uint64_t value) {
  VFM_DCHECK(reg_index % 2 == 0);
  const unsigned first = reg_index * 4;
  for (unsigned i = 0; i < 8; ++i) {
    const unsigned entry = first + i;
    if (entry >= entry_count_) {
      continue;
    }
    const uint8_t old_byte = contents_.cfg[entry];
    if ((old_byte & 0x80) != 0) {
      continue;  // locked entries ignore cfg writes
    }
    contents_.cfg[entry] =
        LegalizePmpCfgByte(old_byte, static_cast<uint8_t>(value >> (8 * i)));
  }
  Intern();
}

uint64_t PmpBank::ReadAddrReg(unsigned index) const {
  if (index >= entry_count_) {
    return 0;
  }
  return contents_.addr[index];
}

void PmpBank::WriteAddrReg(unsigned index, uint64_t value) {
  if (index >= entry_count_) {
    return;
  }
  const PmpCfg cfg = GetCfg(index);
  if (cfg.locked) {
    return;
  }
  // Writes to pmpaddr[i] are also ignored when entry i+1 is locked in TOR mode, since
  // pmpaddr[i] then defines the base of a locked region.
  if (index + 1 < entry_count_) {
    const PmpCfg next = GetCfg(index + 1);
    if (next.locked && next.a == PmpAddrMode::kTor) {
      return;
    }
  }
  contents_.addr[index] = value & kAddrMask;
  Intern();
}

PmpCfg PmpBank::GetCfg(unsigned index) const {
  VFM_DCHECK(index < entry_count_);
  return PmpCfg::FromByte(contents_.cfg[index]);
}

void PmpBank::SetCfg(unsigned index, PmpCfg cfg) {
  VFM_DCHECK(index < entry_count_);
  contents_.cfg[index] = cfg.ToByte();
  Intern();
}

void PmpBank::SetAddr(unsigned index, uint64_t value) {
  VFM_DCHECK(index < entry_count_);
  contents_.addr[index] = value & kAddrMask;
  Intern();
}

void PmpBank::Install(const Contents& contents) {
  for (unsigned i = 0; i < entry_count_; ++i) {
    contents_.cfg[i] = contents.cfg[i];
    contents_.addr[i] = contents.addr[i] & kAddrMask;
  }
  Intern();
}

void PmpBank::Intern() {
  const uint64_t previous = epoch_;
  epoch_ = 0;
  InternSlot* victim = &interned_[0];
  if (entry_count_ <= kInternEntries) {
    for (InternSlot& slot : interned_) {
      if (slot.epoch != 0 &&
          std::memcmp(slot.cfg, contents_.cfg, entry_count_) == 0 &&
          std::memcmp(slot.addr, contents_.addr, entry_count_ * sizeof(uint64_t)) == 0) {
        epoch_ = slot.epoch;
        slot.last_use = ++use_clock_;
        break;
      }
      if (slot.last_use < victim->last_use) {
        victim = &slot;
      }
    }
  }
  if (epoch_ == 0) {
    if ((next_epoch_ >> kEpochIdShift) == 0) {
      ResetIds();
    }
    epoch_ = next_epoch_;
    next_epoch_ += uint64_t{1} << kEpochIdShift;
    if (entry_count_ <= kInternEntries) {
      victim->epoch = epoch_;
      victim->last_use = ++use_clock_;
      std::memcpy(victim->cfg, contents_.cfg, entry_count_);
      std::memcpy(victim->addr, contents_.addr, entry_count_ * sizeof(uint64_t));
    }
  }
  // Equal words mean equal contents, so the decoded ranges stay valid.
  if (epoch_ != previous) {
    cache_valid_ = false;
  }
}

void PmpBank::ResetIds() {
  for (InternSlot& slot : interned_) {
    slot = InternSlot{};
  }
  next_epoch_ = ((next_epoch_ & kEpochCountMask) + 1) | (uint64_t{1} << kEpochIdShift);
}

void PmpBank::RebuildCache() const {
  for (unsigned i = 0; i < entry_count_; ++i) {
    const PmpCfg cfg = PmpCfg::FromByte(contents_.cfg[i]);
    const uint64_t prev = i == 0 ? 0 : contents_.addr[i - 1];
    const std::optional<PmpRange> range = DecodePmpRange(cfg, contents_.addr[i], prev);
    cache_[i].active = range.has_value();
    cache_[i].cfg = cfg;
    if (range.has_value()) {
      cache_[i].range = *range;
    }
  }
  cache_valid_ = true;
}

bool PmpBank::Check(uint64_t addr, uint64_t size, AccessType type, PrivMode mode) const {
  if (entry_count_ == 0) {
    return true;  // no PMP implemented: all accesses are permitted (spec 3.7.1)
  }
  if (!cache_valid_) {
    RebuildCache();
  }
  for (unsigned i = 0; i < entry_count_; ++i) {
    const CachedEntry& entry = cache_[i];
    if (!entry.active || !entry.range.Overlaps(addr, size)) {
      continue;
    }
    if (!entry.range.Contains(addr, size)) {
      return false;  // partial match always denies
    }
    if (mode == PrivMode::kMachine && !entry.cfg.locked) {
      return true;  // unlocked entries do not constrain M-mode
    }
    return entry.cfg.Permits(type);
  }
  // No matching entry: M-mode is allowed, lower privileges are denied.
  return mode == PrivMode::kMachine;
}

PmpRange PmpBank::PermittedWindow(uint64_t addr, AccessType type, PrivMode mode) const {
  uint64_t lo = 0;
  uint64_t hi = ~uint64_t{0};
  if (entry_count_ == 0) {
    return PmpRange{lo, hi};
  }
  if (!cache_valid_) {
    RebuildCache();
  }
  for (unsigned i = 0; i < entry_count_; ++i) {
    const CachedEntry& entry = cache_[i];
    if (!entry.active) {
      continue;
    }
    if (entry.range.Contains(addr, 1)) {
      if (mode == PrivMode::kMachine ? entry.cfg.locked && !entry.cfg.Permits(type)
                                     : !entry.cfg.Permits(type)) {
        return PmpRange{};
      }
      return PmpRange{std::max(lo, entry.range.base), std::min(hi, entry.range.limit)};
    }
    // A range is an interval, so one that misses addr lies wholly below or above it.
    if (entry.range.limit <= addr) {
      lo = std::max(lo, entry.range.limit);
    } else {
      hi = std::min(hi, entry.range.base);
    }
  }
  if (mode != PrivMode::kMachine) {
    return PmpRange{};
  }
  return PmpRange{lo, hi};
}

std::optional<unsigned> PmpBank::FirstMatch(uint64_t addr) const {
  for (unsigned i = 0; i < entry_count_; ++i) {
    const PmpCfg cfg = GetCfg(i);
    const uint64_t prev = i == 0 ? 0 : contents_.addr[i - 1];
    const std::optional<PmpRange> range = DecodePmpRange(cfg, contents_.addr[i], prev);
    if (range.has_value() && range->Contains(addr, 1)) {
      return i;
    }
  }
  return std::nullopt;
}

std::string PmpBank::Describe() const {
  std::string out;
  char line[128];
  for (unsigned i = 0; i < entry_count_; ++i) {
    const PmpCfg cfg = GetCfg(i);
    const uint64_t prev = i == 0 ? 0 : contents_.addr[i - 1];
    const std::optional<PmpRange> range = DecodePmpRange(cfg, contents_.addr[i], prev);
    const char* mode = "OFF";
    switch (cfg.a) {
      case PmpAddrMode::kOff:
        mode = "OFF";
        break;
      case PmpAddrMode::kTor:
        mode = "TOR";
        break;
      case PmpAddrMode::kNa4:
        mode = "NA4";
        break;
      case PmpAddrMode::kNapot:
        mode = "NAPOT";
        break;
    }
    std::snprintf(line, sizeof(line), "pmp%-2u %-5s %c%c%c%c [%016llx, %016llx)\n", i, mode,
                  cfg.locked ? 'L' : '-', cfg.r ? 'R' : '-', cfg.w ? 'W' : '-',
                  cfg.x ? 'X' : '-',
                  static_cast<unsigned long long>(range ? range->base : 0),
                  static_cast<unsigned long long>(range ? range->limit : 0));
    out += line;
  }
  return out;
}

}  // namespace vfm
