// A DMA-capable block device, used by the IOzone-style disk benchmarks (paper Fig. 11)
// and by the sandbox policy's DMA-revocation tests (paper §4.3: the monitor blocks
// firmware access to MMIO regions controlling DMA-capable devices).
//
// Register layout (all 8-byte, offsets from base):
//   0x00 CMD     write 1 = read sectors into RAM, 2 = write sectors from RAM
//   0x08 LBA     first 512-byte sector
//   0x10 COUNT   sector count
//   0x18 DMAADDR physical RAM address for the transfer
//   0x20 STATUS  bit 0 = busy, bit 1 = done, bit 2 = error
//   0x28 IRQACK  write 1 clears done + the PLIC line
//
// Commands complete after a configurable latency in device ticks; the machine calls
// Tick() as simulated time advances, and completion raises the device's PLIC source.

#ifndef SRC_DEV_BLOCKDEV_H_
#define SRC_DEV_BLOCKDEV_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/state.h"
#include "src/dev/plic.h"
#include "src/mem/bus.h"

namespace vfm {

class BlockDev : public ListedState<BlockDev, MmioDevice> {
 public:
  static constexpr uint64_t kSize = 0x1000;
  static constexpr uint64_t kSectorSize = 512;

  static constexpr uint64_t kRegCmd = 0x00;
  static constexpr uint64_t kRegLba = 0x08;
  static constexpr uint64_t kRegCount = 0x10;
  static constexpr uint64_t kRegDmaAddr = 0x18;
  static constexpr uint64_t kRegStatus = 0x20;
  static constexpr uint64_t kRegIrqAck = 0x28;

  static constexpr uint64_t kCmdRead = 1;
  static constexpr uint64_t kCmdWrite = 2;

  static constexpr uint64_t kStatusBusy = 1;
  static constexpr uint64_t kStatusDone = 2;
  static constexpr uint64_t kStatusError = 4;

  // `capacity_sectors` bounds the disk; `latency_ticks` is the fixed command setup
  // latency and `ticks_per_sector` the per-sector transfer time.
  BlockDev(Bus* bus, Plic* plic, unsigned plic_source, uint64_t capacity_sectors,
           uint64_t latency_ticks, uint64_t ticks_per_sector);

  const char* name() const override { return "blockdev"; }
  bool MmioRead(uint64_t offset, unsigned size, uint64_t* value) override;
  bool MmioWrite(uint64_t offset, unsigned size, uint64_t value) override;

  // Uniform state API (DESIGN.md §2h): the whole disk, then the registers and the
  // in-flight command. A busy device must hold a command the guest could have
  // started, or its DMA would run outside the disk on the first tick.
  template <typename Io>
  void VisitState(Io& io) {
    io.BeginSection(StateTag("BLKD"), 1);
    io.FixedBytes(disk_.data(), disk_.size());
    io.U64(lba_);
    io.U64(count_);
    io.U64(dma_addr_);
    io.U64(status_);
    io.U64(pending_cmd_);
    io.U64(deadline_);
    io.U64(last_tick_);
    io.U64(completed_commands_);
    // Checked after the section's last field, so a truncated section reports the
    // truncation first.
    io.Require(!busy() || CanStart(pending_cmd_, lba_, count_), [this] {
      return "blockdev busy with command " + std::to_string(pending_cmd_) + " on " +
             std::to_string(count_) + " sectors at LBA " + std::to_string(lba_) + ", which a " +
             std::to_string(disk_.size() / kSectorSize) + "-sector disk could not have started";
    });
    io.EndSection();
  }

  // Advances device time; completes an in-flight command when its deadline passes.
  void Tick(uint64_t now_ticks);

  bool busy() const { return (status_ & kStatusBusy) != 0; }
  // Device tick at which the in-flight command completes; meaningful only while
  // busy(). The machine's idle fast-forward uses it as a wake-up candidate.
  uint64_t deadline() const { return deadline_; }
  uint64_t completed_commands() const { return completed_commands_; }
  uint64_t status() const { return status_; }

 private:
  // Whether `cmd` over `count` sectors from `lba` is a read or write within the disk:
  // the rule a guest's command must pass to start, and a snapshot's busy device to load.
  bool CanStart(uint64_t cmd, uint64_t lba, uint64_t count) const;
  void StartCommand(uint64_t cmd, uint64_t now_ticks);
  void CompleteCommand();

  Bus* bus_;
  Plic* plic_;
  unsigned plic_source_;
  std::vector<uint8_t> disk_;
  uint64_t latency_ticks_;
  uint64_t ticks_per_sector_;

  uint64_t lba_ = 0;
  uint64_t count_ = 0;
  uint64_t dma_addr_ = 0;
  uint64_t status_ = 0;
  uint64_t pending_cmd_ = 0;
  uint64_t deadline_ = 0;
  uint64_t last_tick_ = 0;
  uint64_t completed_commands_ = 0;
};

}  // namespace vfm

#endif  // SRC_DEV_BLOCKDEV_H_
