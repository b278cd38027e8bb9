// Unit tests for the physical-PMP multiplexer (src/core/vpmp): the Figure-5 layout
// and the cfg function of the faithful-execution criterion.

#include <gtest/gtest.h>

#include "src/core/vcpu.h"
#include "src/core/vpmp.h"

namespace vfm {
namespace {

constexpr uint64_t kMonitorBase = 0x8000'0000;
constexpr uint64_t kMonitorSize = 1 << 20;
constexpr uint64_t kVdevBase = 0x200'0000;
constexpr uint64_t kVdevSize = 0x10000;

class VpmpTest : public ::testing::Test {
 protected:
  VpmpTest() : vcsr_(VirtualHartIsa(HartIsaConfig{}), 0), phys_(8) {
    inputs_.monitor = {true, kMonitorBase, kMonitorSize, false, false, false};
    inputs_.vdev = {true, kVdevBase, kVdevSize, false, false, false};
  }

  void Compute() { ComputePhysicalPmp(vcsr_.pmp(), inputs_, &phys_); }

  CsrFile vcsr_;
  VpmpInputs inputs_;
  PmpBank phys_;
};

TEST(NapotAddrTest, Encoding) {
  EXPECT_EQ(NapotAddr(0, 8), 0u);
  EXPECT_EQ(NapotAddr(0x8000'0000, 0x1000), (0x8000'0000u >> 2) | 0x1FF);
  // Decode back.
  PmpCfg cfg;
  cfg.a = PmpAddrMode::kNapot;
  const auto range = DecodePmpRange(cfg, NapotAddr(0x8010'0000, 1 << 20), 0);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->base, 0x8010'0000u);
  EXPECT_EQ(range->limit, 0x8020'0000u);
}

TEST_F(VpmpTest, MonitorAlwaysProtected) {
  for (bool fw : {false, true}) {
    inputs_.firmware_world = fw;
    Compute();
    for (AccessType type : {AccessType::kLoad, AccessType::kStore, AccessType::kFetch}) {
      EXPECT_FALSE(phys_.Check(kMonitorBase, 8, type, PrivMode::kUser));
      EXPECT_FALSE(phys_.Check(kMonitorBase + kMonitorSize - 8, 8, type,
                               PrivMode::kSupervisor));
    }
  }
}

TEST_F(VpmpTest, FirmwareWorldDefaultGrantsAll) {
  inputs_.firmware_world = true;
  Compute();
  EXPECT_TRUE(phys_.Check(0x8400'0000, 8, AccessType::kStore, PrivMode::kUser));
  EXPECT_TRUE(phys_.Check(0x1000'0000, 1, AccessType::kLoad, PrivMode::kUser));  // UART
  EXPECT_FALSE(phys_.Check(kVdevBase, 4, AccessType::kLoad, PrivMode::kUser));   // CLINT
}

TEST_F(VpmpTest, OsWorldSeesOnlyVirtualEntries) {
  // Without any virtual configuration, S/U accesses are denied (no match).
  inputs_.firmware_world = false;
  Compute();
  EXPECT_FALSE(phys_.Check(0x8400'0000, 8, AccessType::kLoad, PrivMode::kSupervisor));
  // Configure vPMP 0 as NAPOT RWX over a RAM region.
  vcsr_.Set(CsrPmpaddr(0), NapotAddr(0x8400'0000, 1 << 20));
  vcsr_.Set(CsrPmpcfg(0), 0x1F);
  Compute();
  EXPECT_TRUE(phys_.Check(0x8400'0000, 8, AccessType::kLoad, PrivMode::kSupervisor));
  EXPECT_FALSE(phys_.Check(0x8600'0000, 8, AccessType::kLoad, PrivMode::kSupervisor));
}

TEST_F(VpmpTest, UnlockedVirtualEntriesForcedRwxInFirmwareWorld) {
  // A restrictive unlocked ventry must not constrain vM-mode (§4.2).
  vcsr_.Set(CsrPmpaddr(0), NapotAddr(0x8400'0000, 1 << 20));
  vcsr_.Set(CsrPmpcfg(0), 0x18);  // NAPOT, no permissions
  inputs_.firmware_world = true;
  Compute();
  EXPECT_TRUE(phys_.Check(0x8400'0000, 8, AccessType::kStore, PrivMode::kUser));
  // In the OS world the same entry denies.
  inputs_.firmware_world = false;
  Compute();
  EXPECT_FALSE(phys_.Check(0x8400'0000, 8, AccessType::kStore, PrivMode::kSupervisor));
}

TEST_F(VpmpTest, LockedVirtualEntryConstrainsFirmware) {
  vcsr_.Set(CsrPmpaddr(0), NapotAddr(0x8400'0000, 1 << 20));
  vcsr_.Set(CsrPmpcfg(0), 0x99);  // locked NAPOT R--
  inputs_.firmware_world = true;
  Compute();
  EXPECT_TRUE(phys_.Check(0x8400'0000, 8, AccessType::kLoad, PrivMode::kUser));
  EXPECT_FALSE(phys_.Check(0x8400'0000, 8, AccessType::kStore, PrivMode::kUser));
  // The physical copy must never itself be locked (the monitor must stay in charge).
  EXPECT_FALSE(phys_.GetCfg(VpmpLayout::kVpmpFirst).locked);
}

TEST_F(VpmpTest, TorBaseHelperGivesVpmp0ZeroBase) {
  // vPMP 0 in TOR mode must span [0, addr), regardless of its physical slot.
  vcsr_.Set(CsrPmpaddr(0), 0x8400'0000 >> 2);
  vcsr_.Set(CsrPmpcfg(0), 0x0B);  // TOR RW-
  inputs_.firmware_world = false;
  Compute();
  EXPECT_TRUE(phys_.Check(0x100, 8, AccessType::kLoad, PrivMode::kSupervisor));
  EXPECT_TRUE(phys_.Check(0x8300'0000, 8, AccessType::kLoad, PrivMode::kSupervisor));
  EXPECT_FALSE(phys_.Check(0x8400'0000, 8, AccessType::kLoad, PrivMode::kSupervisor));
  // The monitor region still wins (higher priority).
  EXPECT_FALSE(phys_.Check(kMonitorBase, 8, AccessType::kLoad, PrivMode::kSupervisor));
}

TEST_F(VpmpTest, MprvEmulationInstallsExecuteOnlyCover) {
  vcsr_.Set(CsrPmpaddr(0), NapotAddr(0, uint64_t{1} << 56));
  vcsr_.Set(CsrPmpcfg(0), 0x1F);  // a permissive ventry must NOT defeat the cover
  inputs_.firmware_world = true;
  inputs_.mprv_emulation = true;
  Compute();
  EXPECT_TRUE(phys_.Check(0x8400'0000, 4, AccessType::kFetch, PrivMode::kUser));
  EXPECT_FALSE(phys_.Check(0x8400'0000, 8, AccessType::kLoad, PrivMode::kUser));
  EXPECT_FALSE(phys_.Check(0x8400'0000, 8, AccessType::kStore, PrivMode::kUser));
}

TEST_F(VpmpTest, PolicySlotOutranksVirtualEntries) {
  // The policy protects an enclave; the firmware's all-covering ventry can't see it.
  inputs_.policy = {true, 0x8400'0000, 1 << 20, false, false, false};
  vcsr_.Set(CsrPmpaddr(0), NapotAddr(0, uint64_t{1} << 56));
  vcsr_.Set(CsrPmpcfg(0), 0x1F);
  inputs_.firmware_world = false;
  Compute();
  EXPECT_FALSE(phys_.Check(0x8400'0000, 8, AccessType::kLoad, PrivMode::kSupervisor));
  EXPECT_TRUE(phys_.Check(0x8600'0000, 8, AccessType::kLoad, PrivMode::kSupervisor));
}

TEST_F(VpmpTest, SuppressVpmpLeavesOnlyReservedEntries) {
  inputs_.policy = {true, 0x8400'0000, 1 << 20, true, true, true};
  inputs_.suppress_vpmp = true;
  vcsr_.Set(CsrPmpaddr(0), NapotAddr(0, uint64_t{1} << 56));
  vcsr_.Set(CsrPmpcfg(0), 0x1F);
  Compute();
  // Only the policy window is open; everything else is closed for U (enclave mode).
  EXPECT_TRUE(phys_.Check(0x8400'0000, 8, AccessType::kLoad, PrivMode::kUser));
  EXPECT_FALSE(phys_.Check(0x8600'0000, 8, AccessType::kLoad, PrivMode::kUser));
}

TEST_F(VpmpTest, LockdownOverrideConfinesFirmware) {
  // Sandbox lockdown: the firmware default shrinks to its own range and even its own
  // permissive ventries are withheld.
  vcsr_.Set(CsrPmpaddr(0), NapotAddr(0, uint64_t{1} << 56));
  vcsr_.Set(CsrPmpcfg(0), 0x1F);
  inputs_.firmware_world = true;
  inputs_.firmware_default_override = PmpRegionRequest{true, 0x8010'0000, 1 << 20,
                                                       true, true, true};
  Compute();
  EXPECT_TRUE(phys_.Check(0x8010'0000, 8, AccessType::kLoad, PrivMode::kUser));
  EXPECT_FALSE(phys_.Check(0x8400'0000, 8, AccessType::kLoad, PrivMode::kUser));
  EXPECT_FALSE(phys_.Check(0x1000'0000, 1, AccessType::kStore, PrivMode::kUser));
}

TEST_F(VpmpTest, ReinstallingAWorldGivesItsEpochBack) {
  // A world switch installs the other world's configuration as one whole-bank
  // install. Reinstalling contents already in place keeps the bank's epoch, and
  // returning to a world gives that world's epoch back, from a fresh bank's first
  // install on: an entry the monitor turns OFF holds address 0, whatever the other
  // world's configuration put there. A policy region makes a configuration of its
  // own, and removing it gives the world's epoch back.
  vcsr_.pmp().WriteAddrReg(0, 0x2000'0000);
  vcsr_.pmp().WriteCfgReg(0, 0x0F);  // TOR, R W X
  inputs_.firmware_world = false;
  Compute();
  const uint64_t os = phys_.epoch();
  Compute();
  EXPECT_EQ(phys_.epoch(), os);
  inputs_.firmware_world = true;
  Compute();
  const uint64_t firmware = phys_.epoch();
  EXPECT_NE(firmware, os);
  for (int i = 0; i < 3; ++i) {
    inputs_.firmware_world = false;
    Compute();
    EXPECT_EQ(phys_.epoch(), os);
    inputs_.firmware_world = true;
    Compute();
    EXPECT_EQ(phys_.epoch(), firmware);
  }
  inputs_.firmware_world = false;
  inputs_.policy = {true, 0x8400'0000, 1 << 20, false, false, false};
  Compute();
  EXPECT_NE(phys_.epoch(), os);
  EXPECT_NE(phys_.epoch(), firmware);
  EXPECT_FALSE(phys_.Check(0x8400'0000, 8, AccessType::kLoad, PrivMode::kSupervisor));
  inputs_.policy = {};
  Compute();
  EXPECT_EQ(phys_.epoch(), os);
}

TEST_F(VpmpTest, VirtualEntriesLandAtFixedSlots) {
  vcsr_.Set(CsrPmpaddr(1), 0x1234);
  vcsr_.Set(CsrPmpcfg(0), uint64_t{0x1F} << 8);
  inputs_.firmware_world = false;
  Compute();
  EXPECT_EQ(phys_.GetAddr(VpmpLayout::kVpmpFirst + 1), 0x1234u);
  EXPECT_EQ(VpmpLayout::VirtualEntries(8), 3u);
  EXPECT_EQ(VpmpLayout::VirtualEntries(16), 11u);
}

}  // namespace
}  // namespace vfm
