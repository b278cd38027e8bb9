#include "src/dev/blockdev.h"

#include "src/common/check.h"
#include "src/common/log.h"

namespace vfm {

BlockDev::BlockDev(Bus* bus, Plic* plic, unsigned plic_source, uint64_t capacity_sectors,
                   uint64_t latency_ticks, uint64_t ticks_per_sector)
    : bus_(bus),
      plic_(plic),
      plic_source_(plic_source),
      disk_(capacity_sectors * kSectorSize, 0),
      latency_ticks_(latency_ticks),
      ticks_per_sector_(ticks_per_sector) {}

bool BlockDev::MmioRead(uint64_t offset, unsigned size, uint64_t* value) {
  if (size != 8) {
    return false;
  }
  switch (offset) {
    case kRegCmd:
      *value = pending_cmd_;
      return true;
    case kRegLba:
      *value = lba_;
      return true;
    case kRegCount:
      *value = count_;
      return true;
    case kRegDmaAddr:
      *value = dma_addr_;
      return true;
    case kRegStatus:
      *value = status_;
      return true;
    default:
      return false;
  }
}

bool BlockDev::MmioWrite(uint64_t offset, unsigned size, uint64_t value) {
  if (size != 8) {
    return false;
  }
  switch (offset) {
    case kRegCmd:
      StartCommand(value, last_tick_);
      return true;
    case kRegLba:
      lba_ = value;
      return true;
    case kRegCount:
      count_ = value;
      return true;
    case kRegDmaAddr:
      dma_addr_ = value;
      return true;
    case kRegIrqAck:
      if ((value & 1) != 0) {
        status_ &= ~(kStatusDone | kStatusError);
        if (plic_ != nullptr) {
          plic_->ClearSource(plic_source_);
        }
      }
      return true;
    default:
      return false;
  }
}

bool BlockDev::CanStart(uint64_t cmd, uint64_t lba, uint64_t count) const {
  // Written so that no sum wraps: LBA 2^64-1 with COUNT 2 is past the disk.
  const uint64_t capacity = disk_.size() / kSectorSize;
  return (cmd == kCmdRead || cmd == kCmdWrite) && count <= capacity &&
         lba <= capacity - count;
}

void BlockDev::StartCommand(uint64_t cmd, uint64_t now_ticks) {
  if (busy() || !CanStart(cmd, lba_, count_)) {
    status_ |= kStatusError;
    return;
  }
  pending_cmd_ = cmd;
  status_ = kStatusBusy;
  deadline_ = now_ticks + latency_ticks_ + count_ * ticks_per_sector_;
}

void BlockDev::CompleteCommand() {
  const uint64_t bytes = count_ * kSectorSize;
  bool ok = true;
  if (pending_cmd_ == kCmdRead) {
    ok = bus_->WriteBytes(dma_addr_, disk_.data() + lba_ * kSectorSize, bytes);
  } else {
    ok = bus_->ReadBytes(dma_addr_, disk_.data() + lba_ * kSectorSize, bytes);
  }
  status_ = kStatusDone | (ok ? 0 : kStatusError);
  pending_cmd_ = 0;
  ++completed_commands_;
  if (plic_ != nullptr) {
    plic_->RaiseSource(plic_source_);
  }
}

void BlockDev::Tick(uint64_t now_ticks) {
  last_tick_ = now_ticks;
  if (busy() && now_ticks >= deadline_) {
    CompleteCommand();
  }
}

}  // namespace vfm
