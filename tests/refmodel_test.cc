// Unit tests for the reference model (src/refmodel), plus a differential property
// suite cross-checking the reference model against the hart simulator's CSR file.
// The monitor's virtual CSR file is a CsrFile too, so this suite and the CSR tasks of
// src/verif check the one CSR model both run against the independent reference, once
// as the physical hart (8 PMP entries) and once as the virtual hart (3).

#include <gtest/gtest.h>

#include "src/common/bits.h"
#include "src/common/rng.h"
#include "src/refmodel/refmodel.h"
#include "src/sim/csr_file.h"

namespace vfm {
namespace {

RefConfig DefaultConfig() {
  RefConfig config;
  config.pmp_entries = 8;
  return config;
}

TEST(RefCsrTest, MisaIsFixed) {
  const RefConfig config = DefaultConfig();
  RefState state;
  const uint64_t misa = RefCsrGet(config, state, kCsrMisa);
  EXPECT_NE(misa & MisaBit('I'), 0u);
  EXPECT_NE(misa & MisaBit('S'), 0u);
  RefCsrSet(config, &state, kCsrMisa, 0);
  EXPECT_EQ(RefCsrGet(config, state, kCsrMisa), misa);
}

TEST(RefCsrTest, MstatusWarl) {
  const RefConfig config = DefaultConfig();
  RefState state;
  RefCsrSet(config, &state, kCsrMstatus, ~uint64_t{0});
  const uint64_t mstatus = RefCsrGet(config, state, kCsrMstatus);
  EXPECT_EQ(ExtractBits(mstatus, 33, 32), 2u);  // UXL unchanged
  EXPECT_EQ(Bit(mstatus, MstatusBits::kMie), 1u);
  EXPECT_EQ(Bit(mstatus, 37), 0u);  // MBE not writable
  // MPP = 2 is illegal: keeps the old value (0 after the all-ones write legalized
  // MPP to 3, then a write of 2 retains 3).
  EXPECT_EQ(ExtractBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo), 3u);
  RefCsrSet(config, &state, kCsrMstatus, uint64_t{2} << MstatusBits::kMppLo);
  EXPECT_EQ(ExtractBits(RefCsrGet(config, state, kCsrMstatus), MstatusBits::kMppHi,
                        MstatusBits::kMppLo),
            3u);
}

TEST(RefCsrTest, TvecReservedModeKeepsOld) {
  const RefConfig config = DefaultConfig();
  RefState state;
  RefCsrSet(config, &state, kCsrMtvec, 0x8000'0001);
  EXPECT_EQ(state.mtvec, 0x8000'0001u);
  RefCsrSet(config, &state, kCsrMtvec, 0x9000'0002);  // reserved mode 2
  EXPECT_EQ(state.mtvec, 0x9000'0001u);               // base taken, mode kept
}

TEST(RefCsrTest, SatpModeWarl) {
  const RefConfig config = DefaultConfig();
  RefState state;
  RefCsrSet(config, &state, kCsrSatp, (uint64_t{8} << 60) | 0x80000);
  EXPECT_EQ(state.satp >> 60, 8u);
  RefCsrSet(config, &state, kCsrSatp, (uint64_t{9} << 60) | 0x90000);  // Sv48: ignored
  EXPECT_EQ(state.satp, (uint64_t{8} << 60) | 0x80000);
}

TEST(RefCsrTest, SieSipAreDelegatedViews) {
  const RefConfig config = DefaultConfig();
  RefState state;
  state.mideleg = 0x222;
  state.mie = 0x2AA;
  EXPECT_EQ(RefCsrGet(config, state, kCsrSie), 0x222u);
  state.mideleg = 0x002;  // only SSIP delegated
  EXPECT_EQ(RefCsrGet(config, state, kCsrSie), 0x002u);
  // Writes through sie only touch delegated bits.
  RefCsrSet(config, &state, kCsrSie, 0);
  EXPECT_EQ(state.mie, 0x2A8u);
}

TEST(RefCsrTest, CounterGating) {
  const RefConfig config = DefaultConfig();
  RefState state;
  uint64_t out = 0;
  EXPECT_TRUE(RefCsrRead(config, state, kCsrCycle, PrivMode::kMachine, &out));
  EXPECT_FALSE(RefCsrRead(config, state, kCsrCycle, PrivMode::kSupervisor, &out));
  state.mcounteren = 1;
  EXPECT_TRUE(RefCsrRead(config, state, kCsrCycle, PrivMode::kSupervisor, &out));
  EXPECT_FALSE(RefCsrRead(config, state, kCsrCycle, PrivMode::kUser, &out));
  state.scounteren = 1;
  EXPECT_TRUE(RefCsrRead(config, state, kCsrCycle, PrivMode::kUser, &out));
}

TEST(RefCsrTest, AbsentTimeIsIllegal) {
  const RefConfig config = DefaultConfig();  // has_time_csr = false
  RefState state;
  uint64_t out = 0;
  EXPECT_FALSE(RefCsrRead(config, state, kCsrTime, PrivMode::kMachine, &out));
  RefConfig with_time = config;
  with_time.has_time_csr = true;
  state.time = 777;
  state.mcounteren = 2;
  EXPECT_TRUE(RefCsrRead(with_time, state, kCsrTime, PrivMode::kSupervisor, &out));
  EXPECT_EQ(out, 777u);
}

TEST(RefCsrTest, TvmTrapsSatpFromS) {
  const RefConfig config = DefaultConfig();
  RefState state;
  uint64_t out = 0;
  EXPECT_TRUE(RefCsrRead(config, state, kCsrSatp, PrivMode::kSupervisor, &out));
  state.mstatus = SetBit(state.mstatus, MstatusBits::kTvm, 1);
  EXPECT_FALSE(RefCsrRead(config, state, kCsrSatp, PrivMode::kSupervisor, &out));
  EXPECT_TRUE(RefCsrRead(config, state, kCsrSatp, PrivMode::kMachine, &out));
}

TEST(RefCsrTest, ReadOnlyWritesIllegal) {
  const RefConfig config = DefaultConfig();
  RefState state;
  EXPECT_FALSE(RefCsrWrite(config, &state, kCsrMhartid, PrivMode::kMachine, 1));
  EXPECT_FALSE(RefCsrWrite(config, &state, kCsrCycle, PrivMode::kMachine, 1));
  EXPECT_TRUE(RefCsrWrite(config, &state, kCsrMcycle, PrivMode::kMachine, 1));
}

TEST(RefTrapTest, EntryAndDelegation) {
  RefState state;
  state.pc = 0x8000'1000;
  state.priv = PrivMode::kUser;
  state.medeleg = uint64_t{1} << 8;
  state.stvec = 0x8000'2000;
  RefTrapEntry(&state, CauseValue(ExceptionCause::kEcallFromU), 0);
  EXPECT_EQ(state.priv, PrivMode::kSupervisor);
  EXPECT_EQ(state.scause, 8u);
  EXPECT_EQ(state.sepc, 0x8000'1000u);
  EXPECT_EQ(state.pc, 0x8000'2000u);

  // Non-delegated from M always lands in M, even with medeleg set.
  RefState m_state;
  m_state.pc = 0x8000'1000;
  m_state.priv = PrivMode::kMachine;
  m_state.medeleg = ~uint64_t{0};
  m_state.mtvec = 0x8000'3000;
  RefTrapEntry(&m_state, CauseValue(ExceptionCause::kIllegalInstr), 7);
  EXPECT_EQ(m_state.priv, PrivMode::kMachine);
  EXPECT_EQ(m_state.mcause, 2u);
  EXPECT_EQ(m_state.mtval, 7u);
}

TEST(RefTrapTest, VectoredInterruptEntry) {
  RefState state;
  state.pc = 0x8000'0000;
  state.mtvec = 0x8000'4001;  // vectored
  RefTrapEntry(&state, CauseValue(InterruptCause::kMachineTimer), 0);
  EXPECT_EQ(state.pc, 0x8000'4000u + 4 * 7);
}

TEST(RefRetTest, MretSretWfi) {
  RefState state;
  state.mepc = 0x8000'0040;
  state.mstatus = InsertBits(state.mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo, 0);
  EXPECT_TRUE(RefMret(&state));
  EXPECT_EQ(state.priv, PrivMode::kUser);
  EXPECT_EQ(state.pc, 0x8000'0040u);
  EXPECT_FALSE(RefMret(&state));  // now from U: illegal

  RefState s_state;
  s_state.priv = PrivMode::kSupervisor;
  s_state.sepc = 0x8000'0080;
  s_state.mstatus = SetBit(s_state.mstatus, MstatusBits::kSpp, 1);
  EXPECT_TRUE(RefSret(&s_state));
  EXPECT_EQ(s_state.priv, PrivMode::kSupervisor);
  EXPECT_EQ(s_state.pc, 0x8000'0080u);

  RefState w_state;
  w_state.priv = PrivMode::kSupervisor;
  EXPECT_TRUE(RefWfi(w_state));
  w_state.mstatus = SetBit(w_state.mstatus, MstatusBits::kTw, 1);
  EXPECT_FALSE(RefWfi(w_state));
  w_state.priv = PrivMode::kUser;
  EXPECT_FALSE(RefWfi(w_state));
}

TEST(RefInterruptTest, SelectionRules) {
  RefState state;
  state.priv = PrivMode::kSupervisor;
  state.mie = (uint64_t{1} << 7) | (uint64_t{1} << 5);
  state.mip = (uint64_t{1} << 7) | (uint64_t{1} << 5);
  state.mideleg = uint64_t{1} << 5;
  // MTI to M wins (S < M, always enabled).
  EXPECT_EQ(RefPendingInterrupt(state).value_or(0),
            CauseValue(InterruptCause::kMachineTimer));
  state.mip = uint64_t{1} << 5;
  EXPECT_FALSE(RefPendingInterrupt(state).has_value());  // SIE off in S
  state.mstatus = SetBit(state.mstatus, MstatusBits::kSie, 1);
  EXPECT_EQ(RefPendingInterrupt(state).value_or(0),
            CauseValue(InterruptCause::kSupervisorTimer));
}

TEST(RefStepTest, CsrInstructionSemantics) {
  const RefConfig config = DefaultConfig();
  RefState state;
  state.pc = 0x8000'0000;
  state.gpr[5] = 0x1234;
  // csrrw x6, mscratch, x5
  const RefStepResult result = RefStep(config, state, Decode(0x34029373));
  EXPECT_FALSE(result.trapped);
  EXPECT_EQ(result.state.mscratch, 0x1234u);
  EXPECT_EQ(result.state.gpr[6], 0u);  // old value
  EXPECT_EQ(result.state.pc, 0x8000'0004u);
}

TEST(RefStepTest, IllegalResolvesToTrapEntry) {
  const RefConfig config = DefaultConfig();
  RefState state;
  state.pc = 0x8000'0000;
  state.priv = PrivMode::kUser;
  state.mtvec = 0x8000'9000;
  const RefStepResult result = RefStep(config, state, Decode(0x30200073));  // mret from U
  EXPECT_TRUE(result.trapped);
  EXPECT_EQ(result.state.mcause, 2u);
  EXPECT_EQ(result.state.pc, 0x8000'9000u);
  EXPECT_EQ(result.state.mtval, 0x30200073u);
}

// ---- Differential property: reference model vs the hart simulator's CSR file. ----
// The two implementations were written independently (one spec-direct, one inside the
// execution engine); any divergence is a bug in one of them.

class RefVsSimTest : public ::testing::Test {
 protected:
  RefVsSimTest() : csrs_(isa_config_, 0) {}

  static HartIsaConfig MakeIsaConfig() {
    HartIsaConfig config;
    config.pmp_entries = 8;
    return config;
  }

  HartIsaConfig isa_config_ = MakeIsaConfig();
  RefConfig ref_config_ = DefaultConfig();
  CsrFile csrs_;
  RefState ref_;
};

TEST_F(RefVsSimTest, WarlAgreementOnAdversarialWrites) {
  Rng rng(0x5151);
  const uint16_t sweep[] = {kCsrMstatus, kCsrMie,   kCsrMip,     kCsrMideleg, kCsrMedeleg,
                            kCsrMtvec,   kCsrMepc,  kCsrMcause,  kCsrSstatus, kCsrSie,
                            kCsrStvec,   kCsrSatp,  kCsrSepc,    kCsrScause,  kCsrMenvcfg,
                            kCsrMcounteren, kCsrScounteren, kCsrMseccfg};
  for (int iter = 0; iter < 20'000; ++iter) {
    const uint16_t addr = sweep[rng.NextBelow(std::size(sweep))];
    const uint64_t value = rng.NextAdversarial();
    csrs_.Set(addr, value);
    RefCsrSet(ref_config_, &ref_, addr, value);
    for (const uint16_t check : sweep) {
      ASSERT_EQ(csrs_.Get(check), RefCsrGet(ref_config_, ref_, check))
          << "after writing " << CsrName(addr) << " with 0x" << std::hex << value
          << ", mismatch at " << CsrName(check);
    }
  }
}

TEST_F(RefVsSimTest, PmpWarlAgreement) {
  Rng rng(0x9f9f);
  for (int iter = 0; iter < 10'000; ++iter) {
    if (rng.Chance(1, 2)) {
      const uint16_t addr = CsrPmpcfg(static_cast<unsigned>(rng.NextBelow(2)) * 2 / 2 * 2);
      const uint64_t value = rng.NextAdversarial();
      csrs_.Set(addr, value);
      RefCsrSet(ref_config_, &ref_, addr, value);
    } else {
      const uint16_t addr = CsrPmpaddr(static_cast<unsigned>(rng.NextBelow(8)));
      const uint64_t value = rng.NextAdversarial();
      csrs_.Set(addr, value);
      RefCsrSet(ref_config_, &ref_, addr, value);
    }
    ASSERT_EQ(csrs_.Get(CsrPmpcfg(0)), RefCsrGet(ref_config_, ref_, CsrPmpcfg(0)));
    for (unsigned i = 0; i < 8; ++i) {
      ASSERT_EQ(csrs_.Get(CsrPmpaddr(i)), RefCsrGet(ref_config_, ref_, CsrPmpaddr(i)));
    }
  }
}

}  // namespace
}  // namespace vfm
