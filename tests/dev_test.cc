// Unit tests for the device models: CLINT, UART, PLIC, block device.

#include <gtest/gtest.h>

#include "src/dev/blockdev.h"
#include "src/dev/clint.h"
#include "src/dev/plic.h"
#include "src/dev/uart.h"
#include "src/mem/bus.h"

namespace vfm {
namespace {

TEST(ClintTest, MsipReadWrite) {
  Clint clint(4);
  uint64_t value = 99;
  EXPECT_TRUE(clint.MmioRead(0x0, 4, &value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(clint.MmioWrite(0x8, 4, 1));  // hart 2
  EXPECT_TRUE(clint.MsipPending(2));
  EXPECT_FALSE(clint.MsipPending(0));
  EXPECT_TRUE(clint.MmioRead(0x8, 4, &value));
  EXPECT_EQ(value, 1u);
  EXPECT_TRUE(clint.MmioWrite(0x8, 4, 0));
  EXPECT_FALSE(clint.MsipPending(2));
}

TEST(ClintTest, MsipRequiresAlignedWord) {
  Clint clint(2);
  uint64_t value = 0;
  EXPECT_FALSE(clint.MmioRead(0x0, 8, &value));
  EXPECT_FALSE(clint.MmioWrite(0x2, 4, 1));
}

TEST(ClintTest, MtimecmpFullAndHalfAccess) {
  Clint clint(2);
  EXPECT_TRUE(clint.MmioWrite(0x4008, 8, 0x11223344'55667788ull));  // hart 1
  EXPECT_EQ(clint.mtimecmp(1), 0x11223344'55667788ull);
  uint64_t value = 0;
  EXPECT_TRUE(clint.MmioRead(0x4008, 4, &value));
  EXPECT_EQ(value, 0x55667788u);
  EXPECT_TRUE(clint.MmioRead(0x400C, 4, &value));
  EXPECT_EQ(value, 0x11223344u);
  EXPECT_TRUE(clint.MmioWrite(0x400C, 4, 0xAABBCCDD));
  EXPECT_EQ(clint.mtimecmp(1), 0xAABBCCDD'55667788ull);
}

TEST(ClintTest, MtipComparator) {
  Clint clint(1);
  clint.set_mtimecmp(0, 100);
  clint.set_mtime(99);
  EXPECT_FALSE(clint.MtipPending(0));
  clint.AdvanceTime(1);
  EXPECT_TRUE(clint.MtipPending(0));
}

TEST(ClintTest, MtimeReadWrite) {
  Clint clint(1);
  clint.set_mtime(0xCAFE);
  uint64_t value = 0;
  EXPECT_TRUE(clint.MmioRead(0xBFF8, 8, &value));
  EXPECT_EQ(value, 0xCAFEu);
  EXPECT_TRUE(clint.MmioWrite(0xBFF8, 8, 5));
  EXPECT_EQ(clint.mtime(), 5u);
  EXPECT_TRUE(clint.MmioRead(0xBFF8, 4, &value));
  EXPECT_EQ(value, 5u);
}

TEST(ClintTest, ResetStateQuiescent) {
  Clint clint(4);
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_FALSE(clint.MtipPending(i)) << i;  // mtimecmp resets to all-ones
    EXPECT_FALSE(clint.MsipPending(i)) << i;
  }
}

TEST(UartTest, OutputCollected) {
  Uart uart;
  for (char c : std::string("hi\n")) {
    EXPECT_TRUE(uart.MmioWrite(Uart::kDataOffset, 1, static_cast<uint8_t>(c)));
  }
  EXPECT_EQ(uart.output(), "hi\n");
  uart.ClearOutput();
  EXPECT_TRUE(uart.output().empty());
}

TEST(UartTest, InputQueueAndLsr) {
  Uart uart;
  uint64_t lsr = 0;
  EXPECT_TRUE(uart.MmioRead(Uart::kLsrOffset, 1, &lsr));
  EXPECT_EQ(lsr & Uart::kLsrDataReady, 0u);
  EXPECT_NE(lsr & Uart::kLsrThrEmpty, 0u);
  uart.PushInput("ab");
  EXPECT_TRUE(uart.MmioRead(Uart::kLsrOffset, 1, &lsr));
  EXPECT_NE(lsr & Uart::kLsrDataReady, 0u);
  uint64_t byte = 0;
  EXPECT_TRUE(uart.MmioRead(Uart::kDataOffset, 1, &byte));
  EXPECT_EQ(byte, 'a');
  EXPECT_TRUE(uart.MmioRead(Uart::kDataOffset, 1, &byte));
  EXPECT_EQ(byte, 'b');
  EXPECT_TRUE(uart.MmioRead(Uart::kDataOffset, 1, &byte));
  EXPECT_EQ(byte, 0u);  // empty queue reads zero
}

TEST(UartTest, OnlyByteAccess) {
  Uart uart;
  uint64_t value = 0;
  EXPECT_FALSE(uart.MmioRead(Uart::kDataOffset, 4, &value));
  EXPECT_FALSE(uart.MmioWrite(Uart::kDataOffset, 2, 0));
}

TEST(PlicTest, ClaimCompleteCycle) {
  Plic plic(2);
  plic.MmioWrite(0x2000, 4, 0xE);  // hart 0: enable sources 1..3
  EXPECT_FALSE(plic.SeipPending(0));
  plic.RaiseSource(2);
  EXPECT_TRUE(plic.SeipPending(0));
  EXPECT_FALSE(plic.SeipPending(1));  // hart 1 has nothing enabled
  uint64_t claim = 0;
  EXPECT_TRUE(plic.MmioRead(0x200004, 4, &claim));
  EXPECT_EQ(claim, 2u);
  EXPECT_FALSE(plic.SeipPending(0));  // claimed
  plic.ClearSource(2);
  EXPECT_TRUE(plic.MmioWrite(0x200004, 4, 2));  // complete
  EXPECT_FALSE(plic.SeipPending(0));
}

TEST(PlicTest, PriorityZeroMasks) {
  Plic plic(1);
  plic.MmioWrite(0x2000, 4, 0xE);
  plic.MmioWrite(4 * 3, 4, 0);  // priority of source 3 = 0
  plic.RaiseSource(3);
  EXPECT_FALSE(plic.SeipPending(0));
  plic.MmioWrite(4 * 3, 4, 1);
  EXPECT_TRUE(plic.SeipPending(0));
}

TEST(PlicTest, ClaimReturnsLowestPending) {
  Plic plic(1);
  plic.MmioWrite(0x2000, 4, 0xE);
  plic.RaiseSource(3);
  plic.RaiseSource(1);
  uint64_t claim = 0;
  EXPECT_TRUE(plic.MmioRead(0x200004, 4, &claim));
  EXPECT_EQ(claim, 1u);
}

TEST(PlicTest, EmptyClaimReadsZero) {
  Plic plic(1);
  uint64_t claim = 99;
  EXPECT_TRUE(plic.MmioRead(0x200004, 4, &claim));
  EXPECT_EQ(claim, 0u);
}

class BlockDevTest : public ::testing::Test {
 protected:
  BlockDevTest() : bus_(0x8000'0000, 1 << 20), plic_(1), device_(&bus_, &plic_, 2, 1024, 10, 2) {
    plic_.MmioWrite(0x2000, 4, 0xE);
  }

  void Submit(uint64_t cmd, uint64_t lba, uint64_t count, uint64_t dma) {
    device_.MmioWrite(BlockDev::kRegLba, 8, lba);
    device_.MmioWrite(BlockDev::kRegCount, 8, count);
    device_.MmioWrite(BlockDev::kRegDmaAddr, 8, dma);
    device_.MmioWrite(BlockDev::kRegCmd, 8, cmd);
  }

  uint64_t Status() {
    uint64_t status = 0;
    device_.MmioRead(BlockDev::kRegStatus, 8, &status);
    return status;
  }

  Bus bus_;
  Plic plic_;
  BlockDev device_;
};

TEST_F(BlockDevTest, WriteThenReadRoundTrip) {
  const uint8_t payload[512] = {0xAB, 0xCD};
  ASSERT_TRUE(bus_.WriteBytes(0x8000'0000, payload, sizeof(payload)));
  Submit(BlockDev::kCmdWrite, 5, 1, 0x8000'0000);
  EXPECT_TRUE(device_.busy());
  device_.Tick(100);  // past the deadline
  EXPECT_FALSE(device_.busy());
  EXPECT_NE(Status() & BlockDev::kStatusDone, 0u);
  EXPECT_TRUE(plic_.SeipPending(0));

  // Acknowledge, then read the sector back to a different address.
  device_.MmioWrite(BlockDev::kRegIrqAck, 8, 1);
  EXPECT_EQ(Status(), 0u);
  EXPECT_FALSE(plic_.SeipPending(0));
  Submit(BlockDev::kCmdRead, 5, 1, 0x8001'0000);
  device_.Tick(200);
  uint8_t readback[512] = {};
  ASSERT_TRUE(bus_.ReadBytes(0x8001'0000, readback, sizeof(readback)));
  EXPECT_EQ(readback[0], 0xAB);
  EXPECT_EQ(readback[1], 0xCD);
  EXPECT_EQ(device_.completed_commands(), 2u);
}

TEST_F(BlockDevTest, OutOfRangeLbaErrors) {
  // 1020 + 8 > 1024. In the other two ranges LBA + COUNT wraps to a small number;
  // they must be refused too, or the DMA would copy from or to the bytes outside
  // the disk.
  struct Range {
    uint64_t lba;
    uint64_t count;
  };
  for (const Range range :
       {Range{1020, 8}, Range{~uint64_t{0}, 2}, Range{~uint64_t{0} << 55, 1ull << 55}}) {
    for (const uint64_t cmd : {BlockDev::kCmdRead, BlockDev::kCmdWrite}) {
      SCOPED_TRACE(testing::Message() << "cmd " << cmd << " lba " << range.lba << " count "
                                      << range.count);
      device_.MmioWrite(BlockDev::kRegIrqAck, 8, 1);
      const uint64_t completed = device_.completed_commands();
      Submit(cmd, range.lba, range.count, 0x8000'0000);
      EXPECT_NE(Status() & BlockDev::kStatusError, 0u);
      ASSERT_FALSE(device_.busy());
      device_.Tick(1'000);
      EXPECT_EQ(device_.completed_commands(), completed);
      EXPECT_FALSE(device_.busy());
    }
  }
}

TEST_F(BlockDevTest, InvalidCommandErrors) {
  Submit(7, 0, 1, 0x8000'0000);
  EXPECT_NE(Status() & BlockDev::kStatusError, 0u);
}

TEST_F(BlockDevTest, CommandWhileBusyErrors) {
  Submit(BlockDev::kCmdRead, 0, 4, 0x8000'0000);
  EXPECT_TRUE(device_.busy());
  device_.MmioWrite(BlockDev::kRegCmd, 8, BlockDev::kCmdRead);
  EXPECT_NE(Status() & BlockDev::kStatusError, 0u);
}

TEST_F(BlockDevTest, LatencyScalesWithSectors) {
  Submit(BlockDev::kCmdRead, 0, 8, 0x8000'0000);
  device_.Tick(10 + 8 * 2 - 1);
  EXPECT_TRUE(device_.busy());
  device_.Tick(10 + 8 * 2);
  EXPECT_FALSE(device_.busy());
}

TEST_F(BlockDevTest, DmaToUnmappedFailsWithError) {
  Submit(BlockDev::kCmdRead, 0, 1, 0x4000'0000);  // not RAM
  device_.Tick(100);
  EXPECT_NE(Status() & BlockDev::kStatusError, 0u);
}

}  // namespace
}  // namespace vfm
