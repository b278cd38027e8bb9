// Unit tests for the monitor's virtual CSR file: the shadow state the instruction
// emulator operates on (paper §4.1). It is a CsrFile (src/sim) built for the virtual
// hart that VirtualHartIsa (src/core/vcpu) derives from the physical harts.

#include <gtest/gtest.h>

#include "src/common/bits.h"
#include "src/core/vcpu.h"
#include "src/platform/platform.h"

namespace vfm {
namespace {

// The virtual hart of the default physical hart (8 PMP entries), as virtual hart 2.
CsrFile DefaultVcsr(const HartIsaConfig& physical = HartIsaConfig{}) {
  return CsrFile(VirtualHartIsa(physical), 2);
}

TEST(VirtualHartIsaTest, MirrorsThePlatformMinusReservedPmpEntries) {
  HartIsaConfig physical;
  physical.pmp_entries = 16;
  physical.has_time_csr = true;
  physical.has_sstc = true;
  physical.has_custom_csrs = true;
  physical.has_h_ext = true;
  physical.mvendorid = 0x489;
  physical.marchid = 7;
  physical.mimpid = 3;
  const HartIsaConfig isa = VirtualHartIsa(physical);
  EXPECT_EQ(isa.pmp_entries, VpmpLayout::VirtualEntries(16));
  EXPECT_TRUE(isa.has_time_csr);
  EXPECT_TRUE(isa.has_sstc);
  EXPECT_TRUE(isa.has_custom_csrs);
  EXPECT_TRUE(isa.has_h_ext);
  // The platform identity stays hidden.
  const CsrFile vcsr(isa, 0);
  EXPECT_EQ(vcsr.Get(kCsrMvendorid), 0u);
  EXPECT_EQ(vcsr.Get(kCsrMarchid), 0u);
  EXPECT_EQ(vcsr.Get(kCsrMimpid), 0u);
  EXPECT_EQ(VirtualHartIsa(HartIsaConfig{}).pmp_entries, 3u);
}

TEST(VcsrTest, MhartidReportsConfiguredIndex) {
  CsrFile vcsr = DefaultVcsr();
  EXPECT_EQ(vcsr.Get(kCsrMhartid), 2u);
  uint64_t out = 0;
  EXPECT_TRUE(vcsr.ReadCsr(kCsrMhartid, PrivMode::kMachine, false, &out));
  EXPECT_EQ(out, 2u);
  EXPECT_FALSE(vcsr.WriteCsr(kCsrMhartid, PrivMode::kMachine, false, 7));
}

TEST(VcsrTest, ExistenceFollowsConfig) {
  const CsrFile base = DefaultVcsr();
  EXPECT_FALSE(base.CsrExists(kCsrTime));
  EXPECT_FALSE(base.CsrExists(kCsrStimecmp));
  EXPECT_FALSE(base.CsrExists(kCsrCustom0));
  EXPECT_TRUE(base.CsrExists(kCsrMstatus));
  EXPECT_TRUE(base.CsrExists(CsrPmpaddr(63)));
  EXPECT_FALSE(base.CsrExists(static_cast<uint16_t>(CsrPmpcfg(0) + 1)));  // odd pmpcfg
  // mtval2 and mtinst belong to the H extension (EXPERIMENTS.md bug 19).
  EXPECT_FALSE(base.CsrExists(kCsrMtval2));
  EXPECT_FALSE(base.CsrExists(kCsrMtinst));

  HartIsaConfig full;
  full.has_time_csr = true;
  full.has_sstc = true;
  full.has_custom_csrs = true;
  const CsrFile rich = DefaultVcsr(full);
  EXPECT_TRUE(rich.CsrExists(kCsrTime));
  EXPECT_TRUE(rich.CsrExists(kCsrStimecmp));
  EXPECT_TRUE(rich.CsrExists(kCsrCustom3));
}

TEST(VcsrTest, CustomCsrsStoreValues) {
  HartIsaConfig physical;
  physical.has_custom_csrs = true;
  CsrFile vcsr = DefaultVcsr(physical);
  EXPECT_TRUE(vcsr.WriteCsr(kCsrCustom1, PrivMode::kMachine, false, 0xFEED));
  uint64_t out = 0;
  EXPECT_TRUE(vcsr.ReadCsr(kCsrCustom1, PrivMode::kMachine, false, &out));
  EXPECT_EQ(out, 0xFEEDu);
  // Custom CSRs are M-mode only (0x7C1 encodes M privilege).
  EXPECT_FALSE(vcsr.ReadCsr(kCsrCustom1, PrivMode::kSupervisor, false, &out));
}

TEST(VcsrTest, VirtualPmpLegalization) {
  CsrFile vcsr = DefaultVcsr();
  // Entry 0: NAPOT RWX; entry 1: the reserved W-without-R combination (dropped);
  // entry 2: NAPOT locked.
  vcsr.Set(CsrPmpcfg(0), 0x9F'02'1Full);
  EXPECT_EQ(vcsr.pmp().GetCfg(0).ToByte(), 0x1F);
  EXPECT_EQ(vcsr.pmp().GetCfg(1).ToByte(), 0x00);
  EXPECT_EQ(vcsr.pmp().GetCfg(2).ToByte(), 0x9F);
  // The locked entry now ignores further writes.
  vcsr.Set(CsrPmpcfg(0), 0);
  EXPECT_EQ(vcsr.pmp().GetCfg(0).ToByte(), 0x00);
  EXPECT_EQ(vcsr.pmp().GetCfg(2).ToByte(), 0x9F);
  // Entries beyond the virtual count read zero and ignore writes.
  vcsr.Set(CsrPmpaddr(5), 0x1234);
  EXPECT_EQ(vcsr.Get(CsrPmpaddr(5)), 0u);
}

TEST(VcsrTest, LockedTorFreezesPreviousAddr) {
  CsrFile vcsr = DefaultVcsr();
  vcsr.Set(CsrPmpaddr(0), 0x400);
  vcsr.Set(CsrPmpcfg(0), uint64_t{0x88 | 0x01} << 8);  // entry 1: locked TOR R
  vcsr.Set(CsrPmpaddr(0), 0x999);
  EXPECT_EQ(vcsr.pmp().GetAddr(0), 0x400u);
}

TEST(VcsrTest, SstatusViewRoundTrip) {
  CsrFile vcsr = DefaultVcsr();
  vcsr.Set(kCsrSstatus, (uint64_t{1} << MstatusBits::kSie) | (uint64_t{1} << MstatusBits::kSpp) |
                            (uint64_t{1} << MstatusBits::kMie));
  const uint64_t sstatus = vcsr.Get(kCsrSstatus);
  EXPECT_EQ(Bit(sstatus, MstatusBits::kSie), 1u);
  EXPECT_EQ(Bit(sstatus, MstatusBits::kSpp), 1u);
  // MIE is not in the sstatus view and must not leak through the write.
  EXPECT_EQ(Bit(vcsr.Get(kCsrMstatus), MstatusBits::kMie), 0u);
}

TEST(VcsrTest, EffectiveMipComposesLines) {
  CsrFile vcsr = DefaultVcsr();
  vcsr.Set(kCsrMip, uint64_t{1} << 1);  // SSIP software bit
  vcsr.SetInterruptLine(InterruptCause::kMachineTimer, true);
  EXPECT_EQ(vcsr.EffectiveMip(), (uint64_t{1} << 1) | (uint64_t{1} << 7));
  // MTIP is not writable through mip.
  vcsr.Set(kCsrMip, 0);
  EXPECT_EQ(vcsr.EffectiveMip(), uint64_t{1} << 7);
  vcsr.SetInterruptLine(InterruptCause::kMachineTimer, false);
  EXPECT_EQ(vcsr.EffectiveMip(), 0u);
}

TEST(VcsrTest, PrivilegeChecks) {
  CsrFile vcsr = DefaultVcsr();
  uint64_t out = 0;
  EXPECT_FALSE(vcsr.ReadCsr(kCsrMstatus, PrivMode::kSupervisor, false, &out));
  EXPECT_TRUE(vcsr.ReadCsr(kCsrSstatus, PrivMode::kSupervisor, false, &out));
  EXPECT_FALSE(vcsr.ReadCsr(kCsrSstatus, PrivMode::kUser, false, &out));
  EXPECT_FALSE(vcsr.WriteCsr(kCsrMie, PrivMode::kSupervisor, false, 0));
  EXPECT_TRUE(vcsr.WriteCsr(kCsrMie, PrivMode::kMachine, false, 0x88));
}

TEST(VcsrTest, HpmHardwiredZero) {
  CsrFile vcsr = DefaultVcsr();
  EXPECT_TRUE(vcsr.WriteCsr(CsrMhpmcounter(5), PrivMode::kMachine, false, 0x1234));
  uint64_t out = 99;
  EXPECT_TRUE(vcsr.ReadCsr(CsrMhpmcounter(5), PrivMode::kMachine, false, &out));
  EXPECT_EQ(out, 0u);
}

// On qemu-sim, the one platform with H, the virtual hart has the physical H bank and
// its rules: misa reports H, the VS interrupts read as delegated, and hgatp keeps
// only the modes the harts implement.
TEST(VcsrTest, HBankFollowsThePhysicalRules) {
  const PlatformProfile qemu = MakePlatform(PlatformKind::kQemuSim, 1, false);
  ASSERT_TRUE(qemu.machine.isa.has_h_ext);
  CsrFile vcsr = DefaultVcsr(qemu.machine.isa);
  EXPECT_TRUE(vcsr.CsrExists(kCsrHstatus));
  EXPECT_TRUE(vcsr.CsrExists(kCsrVsatp));
  EXPECT_TRUE(vcsr.CsrExists(kCsrMtval2));
  EXPECT_EQ(vcsr.Get(kCsrMisa) & MisaBit('H'), MisaBit('H'));
  EXPECT_EQ(vcsr.Get(kCsrMideleg) & kVsInterrupts, kVsInterrupts);
  vcsr.Set(kCsrVsatp, (uint64_t{8} << 60) | 0x1234);
  EXPECT_EQ(vcsr.Get(kCsrVsatp), (uint64_t{8} << 60) | 0x1234);
  // An Sv39x4 hgatp is ignored: only Bare is modeled.
  vcsr.Set(kCsrHgatp, (uint64_t{8} << 60) | 0x1234);
  EXPECT_EQ(vcsr.Get(kCsrHgatp), 0u);

  // Without the extension the bank is absent.
  const CsrFile plain = DefaultVcsr();
  EXPECT_FALSE(plain.CsrExists(kCsrHstatus));
  EXPECT_EQ(plain.Get(kCsrMisa) & MisaBit('H'), 0u);
}

TEST(VcsrTest, TimeSourceWiring) {
  HartIsaConfig physical;
  physical.has_time_csr = true;
  CsrFile vcsr = DefaultVcsr(physical);
  uint64_t now = 42;
  vcsr.set_time_source([&now] { return now; });
  EXPECT_EQ(vcsr.Get(kCsrTime), 42u);
  now = 43;
  EXPECT_EQ(vcsr.Get(kCsrTime), 43u);
}

TEST(VcsrTest, MepcAlignmentMasked) {
  CsrFile vcsr = DefaultVcsr();
  vcsr.Set(kCsrMepc, 0x8000'0003);
  EXPECT_EQ(vcsr.Get(kCsrMepc), 0x8000'0000u);
}

}  // namespace
}  // namespace vfm
