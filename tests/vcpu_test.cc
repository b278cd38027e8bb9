// Unit tests for the virtual hart context and its privileged-instruction emulator
// (src/core/vcpu): the paper's vM-mode semantics.

#include <gtest/gtest.h>

#include "src/common/bits.h"
#include "src/common/state.h"
#include "src/core/vcpu.h"
#include "src/platform/platform.h"
#include "src/sim/machine.h"

namespace vfm {
namespace {

constexpr uint32_t kMret = 0x30200073;
constexpr uint32_t kSret = 0x10200073;
constexpr uint32_t kWfi = 0x10500073;
constexpr uint32_t kEcall = 0x00000073;

class VcpuTest : public ::testing::Test {
 protected:
  VcpuTest() : vctx_(VirtualHartIsa(HartIsaConfig{}), 0) {
    vctx_.set_pc(0x8010'0000);
    vctx_.set_priv(PrivMode::kMachine);
  }

  EmulationResult Emulate(uint32_t raw) {
    return vctx_.EmulatePrivileged(Decode(raw), gprs_);
  }

  VirtContext vctx_;
  uint64_t gprs_[32] = {};
};

TEST_F(VcpuTest, CsrWriteAndReadBack) {
  gprs_[5] = 0xABCD;  // t0
  // csrrw x6, mscratch, x5
  EmulationResult result = Emulate(0x34029373);
  EXPECT_EQ(result.outcome, EmulationOutcome::kAdvance);
  EXPECT_EQ(vctx_.csrs().Get(kCsrMscratch), 0xABCDu);
  EXPECT_EQ(gprs_[6], 0u);
  EXPECT_EQ(vctx_.pc(), 0x8010'0004u);
  // csrrs x7, mscratch, x0: pure read.
  result = Emulate(0x340023F3);
  EXPECT_EQ(result.outcome, EmulationOutcome::kAdvance);
  EXPECT_EQ(gprs_[7], 0xABCDu);
}

TEST_F(VcpuTest, UnknownCsrRaisesVirtualIllegal) {
  const uint64_t old_pc = vctx_.pc();
  vctx_.csrs().Set(kCsrMtvec, 0x8010'0200);
  // csrrw to the (absent) time CSR.
  const EmulationResult result = Emulate(0xC0101073);
  EXPECT_EQ(result.outcome, EmulationOutcome::kVirtualTrap);
  EXPECT_EQ(result.trap_cause, CauseValue(ExceptionCause::kIllegalInstr));
  EXPECT_EQ(vctx_.csrs().Get(kCsrMepc), old_pc);
  EXPECT_EQ(vctx_.csrs().Get(kCsrMcause), 2u);
  EXPECT_EQ(vctx_.csrs().Get(kCsrMtval), 0xC0101073u);
  EXPECT_EQ(vctx_.pc(), 0x8010'0200u);
  EXPECT_EQ(vctx_.priv(), PrivMode::kMachine);
}

TEST_F(VcpuTest, MretToSupervisorRequestsWorldSwitch) {
  vctx_.csrs().Set(kCsrMepc, 0x8040'0000);
  uint64_t mstatus = vctx_.csrs().Get(kCsrMstatus);
  mstatus = InsertBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo, 1);
  vctx_.csrs().Set(kCsrMstatus, mstatus);
  const EmulationResult result = Emulate(kMret);
  EXPECT_EQ(result.outcome, EmulationOutcome::kReturnToLower);
  EXPECT_EQ(result.lower_priv, PrivMode::kSupervisor);
  EXPECT_EQ(vctx_.priv(), PrivMode::kSupervisor);
  EXPECT_EQ(vctx_.pc(), 0x8040'0000u);
  EXPECT_EQ(ExtractBits(vctx_.csrs().Get(kCsrMstatus), MstatusBits::kMppHi,
                        MstatusBits::kMppLo),
            0u);
}

TEST_F(VcpuTest, MretStayingInMachineRedirects) {
  vctx_.csrs().Set(kCsrMepc, 0x8010'0100);
  uint64_t mstatus = vctx_.csrs().Get(kCsrMstatus);
  mstatus = InsertBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo, 3);
  mstatus = SetBit(mstatus, MstatusBits::kMpie, 1);
  vctx_.csrs().Set(kCsrMstatus, mstatus);
  const EmulationResult result = Emulate(kMret);
  EXPECT_EQ(result.outcome, EmulationOutcome::kRedirect);
  EXPECT_EQ(vctx_.priv(), PrivMode::kMachine);
  EXPECT_EQ(vctx_.pc(), 0x8010'0100u);
  EXPECT_EQ(Bit(vctx_.csrs().Get(kCsrMstatus), MstatusBits::kMie), 1u);
}

TEST_F(VcpuTest, TrapEntryRoundTripThroughMret) {
  // A virtual trap followed by the handler's mret must restore the virtual mode.
  vctx_.csrs().Set(kCsrMtvec, 0x8010'0300);
  vctx_.set_priv(PrivMode::kSupervisor);
  vctx_.set_pc(0x8040'1000);
  vctx_.TakeVirtualTrap(CauseValue(ExceptionCause::kEcallFromS), 0);
  EXPECT_EQ(vctx_.priv(), PrivMode::kMachine);
  EXPECT_EQ(vctx_.pc(), 0x8010'0300u);
  EXPECT_EQ(ExtractBits(vctx_.csrs().Get(kCsrMstatus), MstatusBits::kMppHi,
                        MstatusBits::kMppLo),
            1u);
  const EmulationResult result = Emulate(kMret);
  EXPECT_EQ(result.outcome, EmulationOutcome::kReturnToLower);
  EXPECT_EQ(vctx_.priv(), PrivMode::kSupervisor);
  EXPECT_EQ(vctx_.pc(), 0x8040'1000u);
}

TEST_F(VcpuTest, VirtualDelegationRoutesToVirtualS) {
  // A trap taken while the virtual hart is below M and the cause is delegated goes to
  // the virtual S-mode handler.
  vctx_.csrs().Set(kCsrMedeleg, uint64_t{1} << 8);
  vctx_.csrs().Set(kCsrStvec, 0x8040'2000);
  vctx_.set_priv(PrivMode::kUser);
  vctx_.set_pc(0x8040'1000);
  vctx_.TakeVirtualTrap(CauseValue(ExceptionCause::kEcallFromU), 0);
  EXPECT_EQ(vctx_.priv(), PrivMode::kSupervisor);
  EXPECT_EQ(vctx_.pc(), 0x8040'2000u);
  EXPECT_EQ(vctx_.csrs().Get(kCsrScause), 8u);
}

TEST_F(VcpuTest, WfiOutcome) {
  const EmulationResult result = Emulate(kWfi);
  EXPECT_EQ(result.outcome, EmulationOutcome::kWfi);
  EXPECT_EQ(vctx_.pc(), 0x8010'0004u);
}

TEST_F(VcpuTest, EcallFromVirtualMachineMode) {
  vctx_.csrs().Set(kCsrMtvec, 0x8010'0400);
  const EmulationResult result = Emulate(kEcall);
  EXPECT_EQ(result.outcome, EmulationOutcome::kVirtualTrap);
  EXPECT_EQ(result.trap_cause, CauseValue(ExceptionCause::kEcallFromM));
  EXPECT_EQ(vctx_.pc(), 0x8010'0400u);
}

TEST_F(VcpuTest, SretFromVirtualMachineMode) {
  vctx_.csrs().Set(kCsrSepc, 0x8040'3000);
  uint64_t mstatus = vctx_.csrs().Get(kCsrMstatus);
  mstatus = SetBit(mstatus, MstatusBits::kSpp, 0);
  vctx_.csrs().Set(kCsrMstatus, mstatus);
  const EmulationResult result = Emulate(kSret);
  EXPECT_EQ(result.outcome, EmulationOutcome::kReturnToLower);
  EXPECT_EQ(result.lower_priv, PrivMode::kUser);
  EXPECT_EQ(vctx_.pc(), 0x8040'3000u);
}

TEST_F(VcpuTest, NonPrivilegedInstructionIsVirtualIllegal) {
  // A plain add should never reach the emulator; if it does, it's illegal.
  const EmulationResult result = Emulate(0x00B50533);  // add a0, a0, a1
  EXPECT_EQ(result.outcome, EmulationOutcome::kVirtualTrap);
  EXPECT_EQ(result.trap_cause, CauseValue(ExceptionCause::kIllegalInstr));
}

TEST_F(VcpuTest, PendingVirtualInterruptSelection) {
  CsrFile& csrs = vctx_.csrs();
  csrs.Set(kCsrMie, (uint64_t{1} << 7) | (uint64_t{1} << 3));
  csrs.SetInterruptLine(InterruptCause::kMachineTimer, true);
  csrs.SetInterruptLine(InterruptCause::kMachineSoftware, true);
  // In vM-mode with MIE clear: nothing deliverable.
  EXPECT_FALSE(vctx_.PendingVirtualInterrupt().has_value());
  uint64_t mstatus = csrs.Get(kCsrMstatus);
  mstatus = SetBit(mstatus, MstatusBits::kMie, 1);
  csrs.Set(kCsrMstatus, mstatus);
  // MSI outranks MTI.
  EXPECT_EQ(vctx_.PendingVirtualInterrupt().value_or(0),
            CauseValue(InterruptCause::kMachineSoftware));
  csrs.SetInterruptLine(InterruptCause::kMachineSoftware, false);
  EXPECT_EQ(vctx_.PendingVirtualInterrupt().value_or(0),
            CauseValue(InterruptCause::kMachineTimer));
  // Below vM-mode, machine interrupts are unmaskable.
  csrs.Set(kCsrMstatus, SetBit(csrs.Get(kCsrMstatus), MstatusBits::kMie, 0));
  vctx_.set_priv(PrivMode::kSupervisor);
  EXPECT_TRUE(vctx_.PendingVirtualInterrupt().has_value());
}

TEST_F(VcpuTest, SfenceAdvances) {
  const EmulationResult result = Emulate(0x12000073);
  EXPECT_EQ(result.outcome, EmulationOutcome::kAdvance);
  EXPECT_EQ(vctx_.pc(), 0x8010'0004u);
}

TEST_F(VcpuTest, GprX0NeverWritten) {
  vctx_.csrs().Set(kCsrMscratch, 0x7777);
  // csrrs x0, mscratch, x0
  Emulate(0x34002073);
  EXPECT_EQ(gprs_[0], 0u);
}

TEST_F(VcpuTest, LoadStateRejectsAPrivilegeThatCannotOccur) {
  for (const uint8_t priv : {uint8_t{2}, uint8_t{7}}) {
    StateWriter writer;
    writer.BeginSection(StateTag("VCTX"), 1);
    writer.U64(0x8010'0000);
    writer.U8(priv);
    vctx_.csrs().SaveState(writer);
    writer.EndSection();
    const std::vector<uint8_t> bytes = writer.Take();
    StateReader reader(bytes);
    VirtContext loaded(VirtualHartIsa(HartIsaConfig{}), 0);
    EXPECT_FALSE(loaded.LoadState(reader));
    EXPECT_NE(reader.error().find("privilege " + std::to_string(priv)), std::string::npos)
        << reader.error();
    EXPECT_EQ(loaded.priv(), PrivMode::kMachine);
  }
}

// On qemu-sim, the one platform with H, the vCPU runs the harts' trap entry with
// V = 0: a trap to M clears mstatus.MPV, and a trap delegated to S clears
// hstatus.SPV, exactly as on a hart in the same state. xRETs clear them too.
TEST(VcpuHTest, VirtualTrapEntryMatchesTheHartAtVZero) {
  const PlatformProfile qemu = MakePlatform(PlatformKind::kQemuSim, 1, false);
  ASSERT_TRUE(qemu.machine.isa.has_h_ext);
  Machine machine(qemu.machine);
  Hart& hart = machine.hart(0);
  VirtContext vctx(VirtualHartIsa(qemu.machine.isa), 0);
  const uint64_t mpv = uint64_t{1} << MstatusBits::kMpv;
  const uint64_t spv = uint64_t{1} << HstatusBits::kSpv;
  const uint64_t cause = CauseValue(ExceptionCause::kIllegalInstr);
  for (const bool delegated : {false, true}) {
    SCOPED_TRACE(delegated ? "delegated to S" : "to M");
    for (CsrFile* csrs : {&hart.csrs(), &vctx.csrs()}) {
      csrs->Set(kCsrMtvec, 0x8010'0300);
      csrs->Set(kCsrStvec, 0x8040'2000);
      csrs->Set(kCsrMedeleg, delegated ? uint64_t{1} << cause : 0);
      csrs->Set(kCsrMstatus, csrs->mstatus() | mpv);
      csrs->Set(kCsrHstatus, csrs->hstatus() | spv);
    }
    hart.set_priv(PrivMode::kSupervisor);
    hart.set_virt(false);
    hart.set_pc(0x8040'1000);
    vctx.set_priv(PrivMode::kSupervisor);
    vctx.set_pc(0x8040'1000);
    hart.TakeTrap(cause, 0x55);
    vctx.TakeVirtualTrap(cause, 0x55);

    EXPECT_EQ(vctx.priv(), hart.priv());
    EXPECT_EQ(vctx.pc(), hart.pc());
    EXPECT_FALSE(hart.virt());
    for (const uint16_t csr : {kCsrMstatus, kCsrHstatus, kCsrMepc, kCsrMcause, kCsrMtval,
                               kCsrSepc, kCsrScause, kCsrStval}) {
      EXPECT_EQ(vctx.csrs().Get(csr), hart.csrs().Get(csr)) << CsrName(csr);
    }
    if (delegated) {
      EXPECT_EQ(vctx.priv(), PrivMode::kSupervisor);
      EXPECT_EQ(vctx.csrs().hstatus() & spv, 0u);
      EXPECT_EQ(vctx.csrs().mstatus() & mpv, mpv);
    } else {
      EXPECT_EQ(vctx.priv(), PrivMode::kMachine);
      EXPECT_EQ(vctx.csrs().mstatus() & mpv, 0u);
      EXPECT_EQ(vctx.csrs().hstatus() & spv, spv);
    }
  }

  // mret clears MPV and sret clears SPV; the V bit they would return to is dropped.
  uint64_t gprs[32] = {};
  vctx.set_priv(PrivMode::kMachine);
  vctx.csrs().Set(kCsrMstatus, InsertBits(vctx.csrs().mstatus() | mpv, MstatusBits::kMppHi,
                                          MstatusBits::kMppLo, 1));
  EXPECT_EQ(vctx.EmulatePrivileged(Decode(kMret), gprs).outcome,
            EmulationOutcome::kReturnToLower);
  EXPECT_EQ(vctx.csrs().mstatus() & mpv, 0u);
  vctx.set_priv(PrivMode::kMachine);
  vctx.csrs().Set(kCsrHstatus, vctx.csrs().hstatus() | spv);
  EXPECT_EQ(vctx.EmulatePrivileged(Decode(kSret), gprs).outcome,
            EmulationOutcome::kReturnToLower);
  EXPECT_EQ(vctx.csrs().hstatus() & spv, 0u);
}

}  // namespace
}  // namespace vfm
