// Unit tests for the physical bus: RAM routing, MMIO dispatch, bulk access, and the
// dependency marks behind translation-cache invalidation.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/bits.h"
#include "src/common/state.h"
#include "src/mem/bus.h"

namespace vfm {
namespace {

class RecordingDevice : public MmioDevice {
 public:
  const char* name() const override { return "recorder"; }
  bool MmioRead(uint64_t offset, unsigned size, uint64_t* value) override {
    last_read_offset = offset;
    last_size = size;
    *value = 0x1234;
    return !reject;
  }
  bool MmioWrite(uint64_t offset, unsigned size, uint64_t value) override {
    last_write_offset = offset;
    last_size = size;
    last_value = value;
    return !reject;
  }
  uint64_t last_read_offset = 0;
  uint64_t last_write_offset = 0;
  unsigned last_size = 0;
  uint64_t last_value = 0;
  bool reject = false;
};

TEST(BusTest, RamReadWriteAllSizes) {
  Bus bus;
  bus.AddRam(0x8000'0000, 0x1000);
  for (unsigned size : {1u, 2u, 4u, 8u}) {
    const uint64_t pattern = 0xA1B2C3D4E5F60718ull & MaskLow(8 * size);
    EXPECT_TRUE(bus.Write(0x8000'0100, size, pattern));
    uint64_t value = 0;
    EXPECT_TRUE(bus.Read(0x8000'0100, size, &value));
    EXPECT_EQ(value, pattern);
  }
}

TEST(BusTest, LittleEndianLayout) {
  Bus bus;
  bus.AddRam(0x8000'0000, 0x1000);
  ASSERT_TRUE(bus.Write(0x8000'0000, 8, 0x0102030405060708ull));
  uint64_t byte = 0;
  ASSERT_TRUE(bus.Read(0x8000'0000, 1, &byte));
  EXPECT_EQ(byte, 0x08u);
  ASSERT_TRUE(bus.Read(0x8000'0007, 1, &byte));
  EXPECT_EQ(byte, 0x01u);
}

TEST(BusTest, UnmappedFails) {
  Bus bus;
  bus.AddRam(0x8000'0000, 0x1000);
  uint64_t value = 0;
  EXPECT_FALSE(bus.Read(0x1000, 4, &value));
  EXPECT_FALSE(bus.Write(0x9000'0000, 4, 1));
}

TEST(BusTest, CrossBoundaryFails) {
  Bus bus;
  bus.AddRam(0x8000'0000, 0x1000);
  uint64_t value = 0;
  EXPECT_FALSE(bus.Read(0x8000'0FFC, 8, &value));  // straddles the end of RAM
  EXPECT_TRUE(bus.Read(0x8000'0FF8, 8, &value));
}

TEST(BusTest, MmioDispatchUsesOffsets) {
  Bus bus;
  RecordingDevice device;
  bus.AddMmio(0x200'0000, 0x1000, &device);
  uint64_t value = 0;
  EXPECT_TRUE(bus.Read(0x200'0040, 4, &value));
  EXPECT_EQ(device.last_read_offset, 0x40u);
  EXPECT_EQ(value, 0x1234u);
  EXPECT_TRUE(bus.Write(0x200'0088, 8, 77));
  EXPECT_EQ(device.last_write_offset, 0x88u);
  EXPECT_EQ(device.last_value, 77u);
  EXPECT_EQ(device.last_size, 8u);
}

TEST(BusTest, MmioRejectionPropagates) {
  Bus bus;
  RecordingDevice device;
  device.reject = true;
  bus.AddMmio(0x200'0000, 0x1000, &device);
  uint64_t value = 0;
  EXPECT_FALSE(bus.Read(0x200'0000, 4, &value));
  EXPECT_FALSE(bus.Write(0x200'0000, 4, 0));
}

TEST(BusTest, MmioBeyondWindowFails) {
  Bus bus;
  RecordingDevice device;
  bus.AddMmio(0x200'0000, 0x100, &device);
  uint64_t value = 0;
  EXPECT_FALSE(bus.Read(0x200'00FC, 8, &value));  // crosses the window end
}

TEST(BusTest, BulkAccess) {
  Bus bus;
  bus.AddRam(0x8000'0000, 0x1000);
  const uint8_t data[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  EXPECT_TRUE(bus.WriteBytes(0x8000'0800, data, sizeof(data)));
  uint8_t readback[16] = {};
  EXPECT_TRUE(bus.ReadBytes(0x8000'0800, readback, sizeof(readback)));
  EXPECT_EQ(0, memcmp(data, readback, sizeof(data)));
  // Bulk access never touches MMIO.
  RecordingDevice device;
  bus.AddMmio(0x200'0000, 0x1000, &device);
  EXPECT_FALSE(bus.WriteBytes(0x200'0000, data, 4));
}

TEST(BusTest, IsRamAndFindMmio) {
  Bus bus;
  bus.AddRam(0x8000'0000, 0x1000);
  RecordingDevice device;
  bus.AddMmio(0x200'0000, 0x1000, &device);
  EXPECT_TRUE(bus.IsRam(0x8000'0000, 8));
  EXPECT_FALSE(bus.IsRam(0x8000'0FFF, 8));
  EXPECT_FALSE(bus.IsRam(0x200'0000, 4));
  ASSERT_NE(bus.FindMmio(0x200'0800), nullptr);
  EXPECT_EQ(bus.FindMmio(0x200'0800)->device, &device);
  EXPECT_EQ(bus.FindMmio(0x300'0000), nullptr);
}

TEST(BusTest, MultipleRamRegions) {
  Bus bus;
  bus.AddRam(0x8000'0000, 0x1000);
  bus.AddRam(0x9000'0000, 0x1000);
  EXPECT_TRUE(bus.Write(0x9000'0010, 8, 42));
  uint64_t value = 0;
  EXPECT_TRUE(bus.Read(0x9000'0010, 8, &value));
  EXPECT_EQ(value, 42u);
  EXPECT_FALSE(bus.IsRam(0x8800'0000, 4));
}

// -- Dependency marks (DESIGN.md §2b). ------------------------------------------------
// Exec marks are line-granular for stores: only a store overlapping a 64-byte line a
// cached decode read bumps code_generation(). PT marks, bulk writes and the mark byte
// the harts' host-pointer path tests stay page-granular.

constexpr uint64_t kBase = 0x8000'0000;

// The page's dependency-mark byte, as the harts' host-pointer fast path sees it.
uint8_t MarkByte(const Bus& bus, uint64_t paddr) {
  uint8_t* data = nullptr;
  const uint8_t* marks = nullptr;
  EXPECT_TRUE(bus.HostPage(paddr, &data, &marks));
  return marks == nullptr ? 0 : *marks;
}

TEST(BusMarkTest, StoreToAnotherLineOfExecPageDoesNotInvalidate) {
  Bus bus;
  bus.AddRam(kBase, 0x4000);
  bus.MarkExecLine(kBase + 0x1040);  // line 1 of page 1
  EXPECT_EQ(MarkByte(bus, kBase + 0x1000), Bus::kExecMark);
  EXPECT_TRUE(bus.Write(kBase + 0x1000, 8, 1));  // line 0
  EXPECT_TRUE(bus.Write(kBase + 0x1038, 8, 1));  // ends on line 0's last byte
  EXPECT_TRUE(bus.Write(kBase + 0x1080, 4, 1));  // line 2
  EXPECT_TRUE(bus.Write(kBase + 0x1FF8, 8, 1));  // line 63
  EXPECT_EQ(bus.code_generation(), 0u);
  // The mark survives those stores, and still routes the page through Bus::Write.
  EXPECT_EQ(MarkByte(bus, kBase + 0x1000), Bus::kExecMark);
  EXPECT_TRUE(bus.Write(kBase + 0x107F, 1, 1));  // the marked line's last byte
  EXPECT_EQ(bus.code_generation(), 1u);
  EXPECT_EQ(MarkByte(bus, kBase + 0x1000), 0u);
}

TEST(BusMarkTest, StoresOverlappingMarkedLineInvalidate) {
  Bus bus;
  bus.AddRam(kBase, 0x4000);
  // Aligned, inside the line.
  bus.MarkExecLine(kBase + 0x1104);
  EXPECT_TRUE(bus.Write(kBase + 0x1110, 8, 1));
  EXPECT_EQ(bus.code_generation(), 1u);
  // Misaligned across two lines: only the second line is marked.
  bus.MarkExecLine(kBase + 0x1140);
  EXPECT_TRUE(bus.Write(kBase + 0x113C, 8, 1));
  EXPECT_EQ(bus.code_generation(), 2u);
  // ... and only the first line is marked.
  bus.MarkExecLine(kBase + 0x1100);
  EXPECT_TRUE(bus.Write(kBase + 0x113E, 4, 1));
  EXPECT_EQ(bus.code_generation(), 3u);
  // Across a page boundary into a marked line of the next page; the first page
  // holds no marks at all.
  bus.MarkExecLine(kBase + 0x2000);
  EXPECT_TRUE(bus.Write(kBase + 0x1FFC, 8, 1));
  EXPECT_EQ(bus.code_generation(), 4u);
  // Across a page boundary into an exec-marked page, but not into its marked line.
  bus.MarkExecLine(kBase + 0x2040);
  EXPECT_TRUE(bus.Write(kBase + 0x1FFC, 8, 1));
  EXPECT_EQ(bus.code_generation(), 4u);
  // Across a page boundary out of a marked last line.
  bus.MarkExecLine(kBase + 0x1FC0);
  EXPECT_TRUE(bus.Write(kBase + 0x1FFE, 4, 1));
  EXPECT_EQ(bus.code_generation(), 5u);
}

TEST(BusMarkTest, PtMarksAndBulkWritesStayPageGranular) {
  Bus bus;
  bus.AddRam(kBase, 0x4000);
  ASSERT_TRUE(bus.MarkPtPage(kBase + 0x2008));
  bus.MarkExecLine(kBase + 0x2000);
  // A PT-marked page invalidates the TLBs on a store anywhere in it; the store
  // misses the exec line, so the decode caches stay valid.
  EXPECT_TRUE(bus.Write(kBase + 0x2FF8, 8, 1));
  EXPECT_EQ(bus.pt_generation(), 1u);
  EXPECT_EQ(bus.code_generation(), 0u);
  EXPECT_EQ(MarkByte(bus, kBase + 0x2000), Bus::kExecMark);
  // A bulk write (image load, DMA) invalidates on the page's exec mark, whatever
  // line it lands on.
  const uint8_t bytes[16] = {};
  EXPECT_TRUE(bus.WriteBytes(kBase + 0x2800, bytes, sizeof bytes));
  EXPECT_EQ(bus.code_generation(), 1u);
  EXPECT_EQ(MarkByte(bus, kBase + 0x2000), 0u);
}

TEST(BusMarkTest, MarksAtBothEndsOfLargeRegionAreFoundAndCleared) {
  constexpr uint64_t kSize = 128ull << 20;
  constexpr uint64_t kLast = kBase + kSize - 0x1000;
  Bus bus;
  bus.AddRam(kBase, kSize);
  bus.MarkExecLine(kBase);
  bus.MarkExecLine(kLast + 0xFC0);
  ASSERT_TRUE(bus.MarkPtPage(kLast));
  // An invalidation through the first page clears the last page's exec line too,
  // but leaves its PT mark.
  EXPECT_TRUE(bus.Write(kBase, 4, 1));
  EXPECT_EQ(bus.code_generation(), 1u);
  EXPECT_EQ(MarkByte(bus, kBase), 0u);
  EXPECT_EQ(MarkByte(bus, kLast), Bus::kPtMark);
  EXPECT_TRUE(bus.Write(kLast + 0xFF8, 8, 1));
  EXPECT_EQ(bus.code_generation(), 1u);
  EXPECT_EQ(bus.pt_generation(), 1u);
  EXPECT_EQ(MarkByte(bus, kLast), 0u);
  // And the other way round.
  bus.MarkExecLine(kBase);
  bus.MarkExecLine(kLast + 0xFC0);
  EXPECT_TRUE(bus.Write(kLast + 0xFF8, 8, 1));
  EXPECT_EQ(bus.code_generation(), 2u);
  EXPECT_EQ(MarkByte(bus, kBase), 0u);
  EXPECT_TRUE(bus.Write(kBase, 4, 1));
  EXPECT_EQ(bus.code_generation(), 2u);
}

TEST(BusMarkTest, AdoptRamAndLoadStateClearMarks) {
  Bus bus;
  bus.AddRam(kBase, 0x4000);
  StateWriter writer;
  bus.SaveState(writer);
  std::vector<std::shared_ptr<RamImage>> images;
  bus.FreezeRam(&images);

  bus.MarkExecLine(kBase + 0x1000);
  ASSERT_TRUE(bus.MarkPtPage(kBase + 0x3000));
  bus.AdoptRam(images);
  EXPECT_EQ(MarkByte(bus, kBase + 0x1000), 0u);
  EXPECT_EQ(MarkByte(bus, kBase + 0x3000), 0u);
  EXPECT_TRUE(bus.Write(kBase + 0x1000, 8, 1));
  EXPECT_TRUE(bus.Write(kBase + 0x3000, 8, 1));
  EXPECT_EQ(bus.code_generation(), 0u);
  EXPECT_EQ(bus.pt_generation(), 0u);

  bus.MarkExecLine(kBase + 0x1000);
  StateReader reader(writer.bytes());
  ASSERT_TRUE(bus.LoadState(reader));
  EXPECT_EQ(MarkByte(bus, kBase + 0x1000), 0u);
  EXPECT_TRUE(bus.Write(kBase + 0x1000, 8, 1));
  EXPECT_EQ(bus.code_generation(), 0u);
}

}  // namespace
}  // namespace vfm
