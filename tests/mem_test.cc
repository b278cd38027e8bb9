// Unit tests for the physical bus: RAM routing, MMIO dispatch, bulk access, and the
// dependency marks behind translation-cache invalidation.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/bits.h"
#include "src/common/rng.h"
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
  Bus bus(0x8000'0000, 0x1000);
  for (unsigned size : {1u, 2u, 4u, 8u}) {
    const uint64_t pattern = 0xA1B2C3D4E5F60718ull & MaskLow(8 * size);
    EXPECT_TRUE(bus.Write(0x8000'0100, size, pattern));
    uint64_t value = 0;
    EXPECT_TRUE(bus.Read(0x8000'0100, size, &value));
    EXPECT_EQ(value, pattern);
  }
}

TEST(BusTest, LittleEndianLayout) {
  Bus bus(0x8000'0000, 0x1000);
  ASSERT_TRUE(bus.Write(0x8000'0000, 8, 0x0102030405060708ull));
  uint64_t byte = 0;
  ASSERT_TRUE(bus.Read(0x8000'0000, 1, &byte));
  EXPECT_EQ(byte, 0x08u);
  ASSERT_TRUE(bus.Read(0x8000'0007, 1, &byte));
  EXPECT_EQ(byte, 0x01u);
}

TEST(BusTest, UnmappedFails) {
  Bus bus(0x8000'0000, 0x1000);
  uint64_t value = 0;
  EXPECT_FALSE(bus.Read(0x1000, 4, &value));
  EXPECT_FALSE(bus.Write(0x9000'0000, 4, 1));
}

TEST(BusTest, CrossBoundaryFails) {
  Bus bus(0x8000'0000, 0x1000);
  uint64_t value = 0;
  EXPECT_FALSE(bus.Read(0x8000'0FFC, 8, &value));  // straddles the end of RAM
  EXPECT_TRUE(bus.Read(0x8000'0FF8, 8, &value));
}

TEST(BusTest, MmioDispatchUsesOffsets) {
  Bus bus(0x8000'0000, 0x1000);
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
  Bus bus(0x8000'0000, 0x1000);
  RecordingDevice device;
  device.reject = true;
  bus.AddMmio(0x200'0000, 0x1000, &device);
  uint64_t value = 0;
  EXPECT_FALSE(bus.Read(0x200'0000, 4, &value));
  EXPECT_FALSE(bus.Write(0x200'0000, 4, 0));
}

TEST(BusTest, MmioBeyondWindowFails) {
  Bus bus(0x8000'0000, 0x1000);
  RecordingDevice device;
  bus.AddMmio(0x200'0000, 0x100, &device);
  uint64_t value = 0;
  EXPECT_FALSE(bus.Read(0x200'00FC, 8, &value));  // crosses the window end
}

TEST(BusTest, BulkAccess) {
  Bus bus(0x8000'0000, 0x1000);
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
  Bus bus(0x8000'0000, 0x1000);
  RecordingDevice device;
  bus.AddMmio(0x200'0000, 0x1000, &device);
  EXPECT_TRUE(bus.IsRam(0x8000'0000, 8));
  EXPECT_FALSE(bus.IsRam(0x8000'0FFF, 8));
  EXPECT_FALSE(bus.IsRam(0x200'0000, 4));
  ASSERT_NE(bus.FindMmio(0x200'0800), nullptr);
  EXPECT_EQ(bus.FindMmio(0x200'0800)->device, &device);
  EXPECT_EQ(bus.FindMmio(0x300'0000), nullptr);
}

// -- Dependency marks (DESIGN.md §2b). ------------------------------------------------
// Exec marks are line-granular for stores: only a store overlapping a 64-byte line a
// cached decode read bumps code_generation(). PT marks and bulk writes stay
// page-granular.

constexpr uint64_t kBase = 0x8000'0000;

// The page's dependency-mark byte, as the harts' host-pointer fast path sees it.
uint8_t MarkByte(const Bus& bus, uint64_t paddr) {
  return bus.ram().page_marks()[(paddr - bus.ram().base()) >> Ram::kPageShift];
}

TEST(BusMarkTest, StoreToAnotherLineOfExecPageDoesNotInvalidate) {
  Bus bus(kBase, 0x4000);
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
  Bus bus(kBase, 0x4000);
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
  Bus bus(kBase, 0x4000);
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
  // An empty bulk write touches no page, even at the region's first byte.
  bus.MarkExecLine(kBase);
  EXPECT_TRUE(bus.WriteBytes(kBase, bytes, 0));
  EXPECT_EQ(bus.code_generation(), 1u);
  EXPECT_EQ(MarkByte(bus, kBase), Bus::kExecMark);
}

TEST(BusMarkTest, MarksAtBothEndsOfLargeRegionAreFoundAndCleared) {
  constexpr uint64_t kSize = 128ull << 20;
  constexpr uint64_t kLast = kBase + kSize - 0x1000;
  Bus bus(kBase, kSize);
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
  Bus bus(kBase, 0x4000);
  StateWriter writer;
  bus.SaveState(writer);
  const std::shared_ptr<RamImage> image = bus.ram().Freeze();

  bus.MarkExecLine(kBase + 0x1000);
  ASSERT_TRUE(bus.MarkPtPage(kBase + 0x3000));
  bus.AdoptRam(image);
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

// The bus section of a snapshot: the RAM geometry must match, and a version-1
// section (a region count, then one geometry per region) is rejected with a reason
// instead of misread.
TEST(BusStateTest, RejectsOtherGeometryAndVersionOne) {
  Bus bus(kBase, 0x4000);
  StateWriter writer;
  bus.SaveState(writer);
  Bus same(kBase, 0x4000);
  StateReader good(writer.bytes());
  EXPECT_TRUE(same.LoadState(good));

  Bus larger(kBase, 0x8000);
  StateReader mismatch(writer.bytes());
  EXPECT_FALSE(larger.LoadState(mismatch));
  EXPECT_NE(mismatch.error().find("geometry mismatch"), std::string::npos)
      << mismatch.error();

  StateWriter old;
  old.BeginSection(StateTag("BUSS"), 1);
  old.U32(1);
  old.U64(kBase);
  old.U64(0x4000);
  old.EndSection();
  StateReader version_one(old.bytes());
  EXPECT_FALSE(same.LoadState(version_one));
  EXPECT_NE(version_one.error().find("bus state version 1"), std::string::npos)
      << version_one.error();
  EXPECT_NE(version_one.error().find("re-record the snapshot"), std::string::npos)
      << version_one.error();
}

// Property: for every aligned 1-, 2-, 4- and 8-byte store, the harts' fast-store
// test Ram::StoreClean agrees with StoreHits == 0, over random exec-line marks (so
// random line masks) and PT marks, dense and sparse, on a four-page region.
TEST(BusMarkTest, StoreCleanMatchesStoreHitsForAlignedStores) {
  constexpr uint64_t kSize = 0x4000;
  Rng rng(0x57C1);
  for (int round = 0; round < 40; ++round) {
    Ram ram(kBase, kSize);
    const uint64_t marks = rng.NextBelow(round % 2 == 0 ? 8 : 160);
    for (uint64_t i = 0; i < marks; ++i) {
      ram.Mark(rng.NextBelow(kSize), rng.Chance(1, 6) ? Ram::kPtMark : Ram::kExecMark);
    }
    for (uint64_t size = 1; size <= 8; size *= 2) {
      for (uint64_t offset = 0; offset < kSize; offset += size) {
        ASSERT_EQ(Ram::StoreClean(ram.page_marks(), ram.exec_lines(), offset),
                  ram.StoreHits(offset, size) == 0)
            << "round " << round << ": " << size << " bytes at offset " << offset;
      }
    }
  }
}

}  // namespace
}  // namespace vfm
