// Unit tests for the virtual CLINT (src/core/vclint): the one MMIO device the monitor
// emulates, multiplexing timers and software interrupts (paper §4.3).

#include <gtest/gtest.h>

#include "src/core/vclint.h"

namespace vfm {
namespace {

class VclintTest : public ::testing::Test {
 protected:
  VclintTest() : phys_(4), vclint_(&phys_, 4) {}

  Clint phys_;
  VirtClint vclint_;
};

TEST_F(VclintTest, MtimeReadsPassThrough) {
  phys_.set_mtime(0x1234);
  uint64_t value = 0;
  EXPECT_TRUE(vclint_.Read(Clint::kMtimeOffset, 8, &value));
  EXPECT_EQ(value, 0x1234u);
  EXPECT_TRUE(vclint_.Read(Clint::kMtimeOffset, 4, &value));
  EXPECT_EQ(value, 0x1234u);
}

TEST_F(VclintTest, MtimeWritesAreFiltered) {
  phys_.set_mtime(100);
  EXPECT_TRUE(vclint_.Write(Clint::kMtimeOffset, 8, 0));  // accepted...
  EXPECT_EQ(phys_.mtime(), 100u);                         // ...but has no effect
}

TEST_F(VclintTest, VirtualMtimecmpIsShadowed) {
  EXPECT_TRUE(vclint_.Write(Clint::kMtimecmpBase + 8 * 2, 8, 500));
  EXPECT_EQ(vclint_.virtual_mtimecmp(2), 500u);
  // The physical comparator is untouched: the monitor programs it separately.
  EXPECT_EQ(phys_.mtimecmp(2), ~uint64_t{0});
  uint64_t value = 0;
  EXPECT_TRUE(vclint_.Read(Clint::kMtimecmpBase + 8 * 2, 8, &value));
  EXPECT_EQ(value, 500u);
}

TEST_F(VclintTest, MtimecmpHalfWordAccess) {
  EXPECT_TRUE(vclint_.Write(Clint::kMtimecmpBase, 4, 0xAABB));
  EXPECT_TRUE(vclint_.Write(Clint::kMtimecmpBase + 4, 4, 0xCCDD));
  EXPECT_EQ(vclint_.virtual_mtimecmp(0), 0x0000CCDD'0000AABBull);
  uint64_t value = 0;
  EXPECT_TRUE(vclint_.Read(Clint::kMtimecmpBase + 4, 4, &value));
  EXPECT_EQ(value, 0xCCDDu);
}

TEST_F(VclintTest, VirtualMsip) {
  EXPECT_TRUE(vclint_.Write(Clint::kMsipBase + 4 * 3, 4, 1));
  EXPECT_TRUE(vclint_.VirtualMsip(3));
  EXPECT_FALSE(vclint_.VirtualMsip(0));
  EXPECT_FALSE(phys_.MsipPending(3));  // physical line untouched
  uint64_t value = 0;
  EXPECT_TRUE(vclint_.Read(Clint::kMsipBase + 4 * 3, 4, &value));
  EXPECT_EQ(value, 1u);
  EXPECT_TRUE(vclint_.Write(Clint::kMsipBase + 4 * 3, 4, 0));
  EXPECT_FALSE(vclint_.VirtualMsip(3));
}

TEST_F(VclintTest, VirtualMtipComparator) {
  vclint_.set_virtual_mtimecmp(1, 200);
  phys_.set_mtime(199);
  EXPECT_FALSE(vclint_.VirtualMtip(1));
  phys_.set_mtime(200);
  EXPECT_TRUE(vclint_.VirtualMtip(1));
}

TEST_F(VclintTest, ReadsSeeTheSyncedTime) {
  // A single-hart machine stores mtime only at batch boundaries and installs a tick
  // source that gives the exact time in between. Every read through the virtual
  // CLINT must see that exact time, not the stored counter.
  uint64_t due = 100;
  phys_.set_tick_source([&due] { return due; });
  phys_.set_mtime(100);
  due = 150;
  EXPECT_EQ(vclint_.mtime(), 150u);
  due = 200;
  uint64_t value = 0;
  ASSERT_TRUE(vclint_.Read(Clint::kMtimeOffset, 8, &value));
  EXPECT_EQ(value, 200u);
  vclint_.set_virtual_mtimecmp(1, 250);
  EXPECT_FALSE(vclint_.VirtualMtip(1));
  due = 250;
  EXPECT_TRUE(vclint_.VirtualMtip(1));
  EXPECT_EQ(phys_.mtime(), 250u);  // each read pushed the physical counter forward
}

TEST_F(VclintTest, PhysicalDeadlineIsMinimum) {
  vclint_.set_virtual_mtimecmp(0, 300);
  EXPECT_EQ(vclint_.PhysicalDeadline(0, 250), 250u);  // OS deadline sooner
  EXPECT_EQ(vclint_.PhysicalDeadline(0, 400), 300u);  // firmware deadline sooner
  EXPECT_EQ(vclint_.PhysicalDeadline(0, ~uint64_t{0}), 300u);
}

TEST_F(VclintTest, BadOffsetsRejected) {
  uint64_t value = 0;
  EXPECT_FALSE(vclint_.Read(Clint::kMsipBase + 2, 4, &value));       // misaligned
  EXPECT_FALSE(vclint_.Read(Clint::kMsipBase, 8, &value));           // wrong size
  EXPECT_FALSE(vclint_.Write(Clint::kMtimecmpBase + 2, 4, 0));
  EXPECT_FALSE(vclint_.Read(0x9000, 8, &value));                     // hole
}

}  // namespace
}  // namespace vfm
