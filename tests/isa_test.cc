// Unit tests for src/isa: decoder correctness via encoder round trips, CSR address
// classification, privileged-architecture helpers, and disassembly.

#include <gtest/gtest.h>

#include "src/asm/assembler.h"
#include "src/isa/csr.h"
#include "src/isa/disasm.h"
#include "src/isa/instr.h"
#include "src/isa/priv.h"
#include "src/isa/sbi.h"

namespace vfm {
namespace {

// Assembles a single instruction and returns its encoding.
uint32_t Encode1(const std::function<void(Assembler&)>& emit) {
  Assembler a(0x1000);
  emit(a);
  Image image = std::move(a.Finish()).value();
  EXPECT_EQ(image.bytes.size(), 4u);
  return static_cast<uint32_t>(image.bytes[0]) | (static_cast<uint32_t>(image.bytes[1]) << 8) |
         (static_cast<uint32_t>(image.bytes[2]) << 16) |
         (static_cast<uint32_t>(image.bytes[3]) << 24);
}

TEST(DecodeTest, RTypeRoundTrip) {
  struct Case {
    Op op;
    std::function<void(Assembler&)> emit;
  };
  const Case cases[] = {
      {Op::kAdd, [](Assembler& a) { a.Add(a0, a1, a2); }},
      {Op::kSub, [](Assembler& a) { a.Sub(a0, a1, a2); }},
      {Op::kSll, [](Assembler& a) { a.Sll(a0, a1, a2); }},
      {Op::kSlt, [](Assembler& a) { a.Slt(a0, a1, a2); }},
      {Op::kSltu, [](Assembler& a) { a.Sltu(a0, a1, a2); }},
      {Op::kXor, [](Assembler& a) { a.Xor(a0, a1, a2); }},
      {Op::kSrl, [](Assembler& a) { a.Srl(a0, a1, a2); }},
      {Op::kSra, [](Assembler& a) { a.Sra(a0, a1, a2); }},
      {Op::kOr, [](Assembler& a) { a.Or(a0, a1, a2); }},
      {Op::kAnd, [](Assembler& a) { a.And(a0, a1, a2); }},
      {Op::kAddw, [](Assembler& a) { a.Addw(a0, a1, a2); }},
      {Op::kSubw, [](Assembler& a) { a.Subw(a0, a1, a2); }},
      {Op::kMul, [](Assembler& a) { a.Mul(a0, a1, a2); }},
      {Op::kMulhu, [](Assembler& a) { a.Mulhu(a0, a1, a2); }},
      {Op::kDiv, [](Assembler& a) { a.Div(a0, a1, a2); }},
      {Op::kDivu, [](Assembler& a) { a.Divu(a0, a1, a2); }},
      {Op::kRem, [](Assembler& a) { a.Rem(a0, a1, a2); }},
      {Op::kRemu, [](Assembler& a) { a.Remu(a0, a1, a2); }},
  };
  for (const Case& c : cases) {
    const DecodedInstr d = Decode(Encode1(c.emit));
    EXPECT_EQ(d.op, c.op) << OpName(c.op);
    EXPECT_EQ(d.rd, a0);
    EXPECT_EQ(d.rs1, a1);
    EXPECT_EQ(d.rs2, a2);
  }
}

TEST(DecodeTest, ITypeImmediates) {
  for (int32_t imm : {-2048, -1, 0, 1, 127, 2047}) {
    const DecodedInstr d = Decode(Encode1([imm](Assembler& a) { a.Addi(t0, t1, imm); }));
    EXPECT_EQ(d.op, Op::kAddi);
    EXPECT_EQ(d.imm, imm);
    EXPECT_EQ(d.rd, t0);
    EXPECT_EQ(d.rs1, t1);
  }
}

TEST(DecodeTest, LoadStoreOffsets) {
  for (int32_t imm : {-2048, -8, 0, 8, 2047}) {
    const DecodedInstr ld = Decode(Encode1([imm](Assembler& a) { a.Ld(s2, sp, imm); }));
    EXPECT_EQ(ld.op, Op::kLd);
    EXPECT_EQ(ld.imm, imm);
    const DecodedInstr sd = Decode(Encode1([imm](Assembler& a) { a.Sd(s2, sp, imm); }));
    EXPECT_EQ(sd.op, Op::kSd);
    EXPECT_EQ(sd.imm, imm);
    EXPECT_EQ(sd.rs2, s2);
    EXPECT_EQ(sd.rs1, sp);
  }
}

TEST(DecodeTest, LoadVariants) {
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.Lb(a0, a1, 0); })).op, Op::kLb);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.Lh(a0, a1, 0); })).op, Op::kLh);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.Lw(a0, a1, 0); })).op, Op::kLw);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.Lbu(a0, a1, 0); })).op, Op::kLbu);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.Lhu(a0, a1, 0); })).op, Op::kLhu);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.Lwu(a0, a1, 0); })).op, Op::kLwu);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.Sb(a0, a1, 0); })).op, Op::kSb);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.Sh(a0, a1, 0); })).op, Op::kSh);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.Sw(a0, a1, 0); })).op, Op::kSw);
}

TEST(DecodeTest, BranchOffsets) {
  Assembler a(0x1000);
  a.Bind("target");
  a.Nop();
  a.Beq(a0, a1, "target");
  Image image = std::move(a.Finish()).value();
  uint32_t word = 0;
  for (int i = 0; i < 4; ++i) {
    word |= static_cast<uint32_t>(image.bytes[4 + i]) << (8 * i);
  }
  const DecodedInstr d = Decode(word);
  EXPECT_EQ(d.op, Op::kBeq);
  EXPECT_EQ(d.imm, -4);
}

TEST(DecodeTest, JalOffsetForwardAndBack) {
  Assembler a(0x1000);
  a.J("fwd");
  a.Nop();
  a.Bind("fwd");
  a.J("fwd");
  Image image = std::move(a.Finish()).value();
  auto word_at = [&](size_t off) {
    uint32_t w = 0;
    for (int i = 0; i < 4; ++i) {
      w |= static_cast<uint32_t>(image.bytes[off + i]) << (8 * i);
    }
    return w;
  };
  EXPECT_EQ(Decode(word_at(0)).imm, 8);
  EXPECT_EQ(Decode(word_at(8)).imm, 0);
}

TEST(DecodeTest, CsrInstructions) {
  const DecodedInstr w = Decode(Encode1([](Assembler& a) { a.Csrrw(a0, kCsrMstatus, a1); }));
  EXPECT_EQ(w.op, Op::kCsrrw);
  EXPECT_EQ(w.csr, kCsrMstatus);
  EXPECT_EQ(w.rd, a0);
  EXPECT_EQ(w.rs1, a1);
  const DecodedInstr si = Decode(Encode1([](Assembler& a) { a.Csrrsi(zero, kCsrMip, 2); }));
  EXPECT_EQ(si.op, Op::kCsrrsi);
  EXPECT_EQ(si.zimm, 2);
}

TEST(DecodeTest, PrivilegedEncodings) {
  EXPECT_EQ(Decode(0x30200073).op, Op::kMret);
  EXPECT_EQ(Decode(0x10200073).op, Op::kSret);
  EXPECT_EQ(Decode(0x10500073).op, Op::kWfi);
  EXPECT_EQ(Decode(0x00000073).op, Op::kEcall);
  EXPECT_EQ(Decode(0x00100073).op, Op::kEbreak);
  EXPECT_EQ(Decode(0x12000073).op, Op::kSfenceVma);
}

TEST(DecodeTest, XretWithNonzeroRdInvalid) {
  // mret with rd=1 is not a valid encoding.
  EXPECT_EQ(Decode(0x30200073 | (1 << 7)).op, Op::kInvalid);
  EXPECT_EQ(Decode(0x10500073 | (3 << 15)).op, Op::kInvalid);
}

TEST(DecodeTest, AmoRoundTrip) {
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.LrW(a0, a1); })).op, Op::kLrW);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.ScW(a0, a2, a1); })).op, Op::kScW);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.AmoswapW(a0, a2, a1); })).op, Op::kAmoswapW);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.AmoaddW(a0, a2, a1); })).op, Op::kAmoaddW);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.AmoaddD(a0, a2, a1); })).op, Op::kAmoaddD);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.AmoswapD(a0, a2, a1); })).op, Op::kAmoswapD);
}

TEST(DecodeTest, CompressedRejected) {
  EXPECT_EQ(Decode(0x0001).op, Op::kInvalid);  // c.nop
  EXPECT_EQ(Decode(0x8082).op, Op::kInvalid);  // c.ret
}

TEST(DecodeTest, FenceForms) {
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.Fence(); })).op, Op::kFence);
  EXPECT_EQ(Decode(Encode1([](Assembler& a) { a.FenceI(); })).op, Op::kFenceI);
}

TEST(DecodeTest, UTypeAndShift) {
  const DecodedInstr lui = Decode(Encode1([](Assembler& a) { a.Lui(a0, -1); }));
  EXPECT_EQ(lui.op, Op::kLui);
  EXPECT_EQ(lui.imm, -4096);
  const DecodedInstr slli = Decode(Encode1([](Assembler& a) { a.Slli(a0, a1, 63); }));
  EXPECT_EQ(slli.op, Op::kSlli);
  EXPECT_EQ(slli.imm, 63);
  const DecodedInstr srai = Decode(Encode1([](Assembler& a) { a.Srai(a0, a1, 12); }));
  EXPECT_EQ(srai.op, Op::kSrai);
  EXPECT_EQ(srai.imm, 12);
}

// RV64A read-modify-write results at the sign boundaries: signed against unsigned
// min/max, and the W forms' 32-bit operands (the upper bits of both ignored, the
// result sign-extended from bit 31).
TEST(AmoResultTest, EveryOpAtBothWidths) {
  constexpr uint64_t kMin64 = 0x8000'0000'0000'0000;
  constexpr uint64_t kMax64 = 0x7FFF'FFFF'FFFF'FFFF;
  constexpr uint64_t kOnes = ~uint64_t{0};
  constexpr uint64_t kMin32 = 0x8000'0000;  // as a 4-byte load returns it
  constexpr uint64_t kMax32 = 0x7FFF'FFFF;
  constexpr uint64_t kMin32Sext = 0xFFFF'FFFF'8000'0000;
  constexpr uint64_t kMinusOneW = 0x1234'5678'FFFF'FFFF;  // -1 in its low 32 bits
  struct Case {
    Op op;
    uint64_t old;
    uint64_t rhs;
    uint64_t want;
  };
  const Case cases[] = {
      {Op::kAmoswapD, kMin64, kMax64, kMax64},
      {Op::kAmoaddD, kMax64, 1, kMin64},
      {Op::kAmoxorD, kMin64, kMax64, kOnes},
      {Op::kAmoandD, kMin64, kOnes, kMin64},
      {Op::kAmoorD, kMin64, kMax64, kOnes},
      {Op::kAmominD, kMin64, kMax64, kMin64},
      {Op::kAmomaxD, kMin64, kMax64, kMax64},
      {Op::kAmominuD, kMin64, kMax64, kMax64},
      {Op::kAmomaxuD, kMin64, kMax64, kMin64},
      {Op::kAmominD, kOnes, 0, kOnes},
      {Op::kAmomaxuD, kOnes, 0, kOnes},
      {Op::kAmoswapW, kMin32, kMax32, kMax32},
      {Op::kAmoaddW, kMax32, 1, kMin32Sext},
      {Op::kAmoxorW, kMin32, kMax32, kOnes},
      {Op::kAmoandW, kMin32, kOnes, kMin32Sext},
      {Op::kAmoorW, kMin32, kMax32, kOnes},
      {Op::kAmominW, kMin32, kMax32, kMin32Sext},
      {Op::kAmomaxW, kMin32, kMax32, kMax32},
      {Op::kAmominuW, kMin32, kMax32, kMax32},
      {Op::kAmomaxuW, kMin32, kMax32, kMin32Sext},
      {Op::kAmoswapW, 0, kMinusOneW, kOnes},
      {Op::kAmoaddW, 1, kMinusOneW, 0},
      {Op::kAmominW, 1, kMinusOneW, kOnes},
      {Op::kAmominuW, 1, kMinusOneW, 1},
      {Op::kAmomaxuW, 1, kMinusOneW, kOnes},
      {Op::kAmomaxW, kMin32Sext, 0, 0},
      {Op::kAmomaxuW, kMin32Sext, 0, kMin32Sext},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(AmoResult(c.op, c.old, c.rhs), c.want)
        << OpName(c.op) << " old=0x" << std::hex << c.old << " rhs=0x" << c.rhs;
  }
}

TEST(OpPropertiesTest, PrivilegedClassification) {
  EXPECT_TRUE(OpIsPrivileged(Op::kCsrrw));
  EXPECT_TRUE(OpIsPrivileged(Op::kMret));
  EXPECT_TRUE(OpIsPrivileged(Op::kWfi));
  EXPECT_TRUE(OpIsPrivileged(Op::kEcall));
  EXPECT_TRUE(OpIsPrivileged(Op::kSfenceVma));
  EXPECT_FALSE(OpIsPrivileged(Op::kAdd));
  EXPECT_FALSE(OpIsPrivileged(Op::kLd));
  EXPECT_FALSE(OpIsPrivileged(Op::kJal));
}

TEST(CsrTest, Classification) {
  EXPECT_TRUE(CsrIsReadOnly(kCsrMhartid));
  EXPECT_TRUE(CsrIsReadOnly(kCsrCycle));
  EXPECT_FALSE(CsrIsReadOnly(kCsrMstatus));
  EXPECT_FALSE(CsrIsReadOnly(kCsrSatp));
  EXPECT_EQ(CsrMinPriv(kCsrMstatus), PrivMode::kMachine);
  EXPECT_EQ(CsrMinPriv(kCsrSstatus), PrivMode::kSupervisor);
  EXPECT_EQ(CsrMinPriv(kCsrCycle), PrivMode::kUser);
  EXPECT_EQ(CsrMinPriv(kCsrHstatus), PrivMode::kSupervisor);  // HS CSRs fold into S
}

TEST(CsrTest, NamesAndLookup) {
  EXPECT_EQ(CsrName(kCsrMstatus), "mstatus");
  EXPECT_EQ(CsrName(kCsrSatp), "satp");
  EXPECT_EQ(CsrName(CsrPmpaddr(7)), "pmpaddr7");
  EXPECT_EQ(CsrName(CsrPmpcfg(1)), "pmpcfg2");
  EXPECT_EQ(CsrName(0x123), "csr_0x123");
  EXPECT_NE(LookupCsr(kCsrMie), nullptr);
  EXPECT_EQ(LookupCsr(0x7FF), nullptr);
}

TEST(CsrTest, TableCoversAtLeast84Csrs) {
  // The paper's Miralis supports 84 CSRs; this library's table must not shrink
  // below that.
  EXPECT_GE(AllKnownCsrs().size(), 84u);
}

TEST(PrivTest, CauseValues) {
  EXPECT_EQ(CauseValue(ExceptionCause::kIllegalInstr), 2u);
  EXPECT_EQ(CauseValue(ExceptionCause::kEcallFromS), 9u);
  EXPECT_EQ(CauseValue(InterruptCause::kMachineTimer), kInterruptBit | 7);
  EXPECT_EQ(InterruptMask(InterruptCause::kSupervisorSoftware), 2u);
}

TEST(PrivTest, TrapTargetPc) {
  // Direct mode: always base.
  EXPECT_EQ(TrapTargetPc(0x80001000, CauseValue(InterruptCause::kMachineTimer)), 0x80001000u);
  // Vectored mode: base + 4*cause for interrupts only.
  EXPECT_EQ(TrapTargetPc(0x80001001, CauseValue(InterruptCause::kMachineTimer)),
            0x80001000u + 4 * 7);
  EXPECT_EQ(TrapTargetPc(0x80001001, CauseValue(ExceptionCause::kIllegalInstr)), 0x80001000u);
}

TEST(PrivTest, SstatusMaskContents) {
  EXPECT_NE(kSstatusMask & (uint64_t{1} << MstatusBits::kSie), 0u);
  EXPECT_NE(kSstatusMask & (uint64_t{1} << MstatusBits::kSpp), 0u);
  EXPECT_NE(kSstatusMask & (uint64_t{1} << MstatusBits::kSum), 0u);
  EXPECT_EQ(kSstatusMask & (uint64_t{1} << MstatusBits::kMie), 0u);
  EXPECT_EQ(kSstatusMask & MaskRange(MstatusBits::kMppHi, MstatusBits::kMppLo), 0u);
}

TEST(DisasmTest, RendersCommonForms) {
  EXPECT_EQ(Disassemble(Encode1([](Assembler& a) { a.Add(a0, a1, a2); })), "add a0, a1, a2");
  EXPECT_EQ(Disassemble(Encode1([](Assembler& a) { a.Addi(sp, sp, -16); })),
            "addi sp, sp, -16");
  EXPECT_EQ(Disassemble(Encode1([](Assembler& a) { a.Ld(ra, sp, 8); })), "ld ra, 8(sp)");
  EXPECT_EQ(Disassemble(Encode1([](Assembler& a) { a.Csrrw(a0, kCsrMscratch, a1); })),
            "csrrw a0, mscratch, a1");
  EXPECT_EQ(Disassemble(0x30200073u), "mret");
  EXPECT_EQ(Disassemble(0x10500073u), "wfi");
}

TEST(DisasmTest, RegNames) {
  EXPECT_STREQ(RegName(0), "zero");
  EXPECT_STREQ(RegName(1), "ra");
  EXPECT_STREQ(RegName(2), "sp");
  EXPECT_STREQ(RegName(10), "a0");
  EXPECT_STREQ(RegName(31), "t6");
  EXPECT_STREQ(RegName(99), "x?");
}

TEST(SbiTest, ExtensionIds) {
  EXPECT_EQ(SbiExt::kTime, 0x54494D45u);
  EXPECT_EQ(SbiExt::kIpi, 0x735049u);
  EXPECT_EQ(SbiExt::kRfence, 0x52464E43u);
}

}  // namespace
}  // namespace vfm
