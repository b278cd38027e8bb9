// Instruction decoding for RV64IMA + Zicsr + Zifencei + the privileged instructions.
// The decoder is shared by the hart simulator, the monitor's privileged-instruction
// emulator, and the reference model; the encoder half lives in src/asm.

#ifndef SRC_ISA_INSTR_H_
#define SRC_ISA_INSTR_H_

#include <cstdint>

#include "src/common/bits.h"

namespace vfm {

enum class Op : uint16_t {
  kInvalid = 0,
  // RV64I.
  kLui, kAuipc, kJal, kJalr,
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  kLb, kLh, kLw, kLd, kLbu, kLhu, kLwu,
  kSb, kSh, kSw, kSd,
  kAddi, kSlti, kSltiu, kXori, kOri, kAndi, kSlli, kSrli, kSrai,
  kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd,
  kAddiw, kSlliw, kSrliw, kSraiw,
  kAddw, kSubw, kSllw, kSrlw, kSraw,
  kFence, kFenceI,
  kEcall, kEbreak,
  // Zicsr.
  kCsrrw, kCsrrs, kCsrrc, kCsrrwi, kCsrrsi, kCsrrci,
  // RV64M.
  kMul, kMulh, kMulhsu, kMulhu, kDiv, kDivu, kRem, kRemu,
  kMulw, kDivw, kDivuw, kRemw, kRemuw,
  // RV64A.
  kLrW, kScW, kAmoswapW, kAmoaddW, kAmoxorW, kAmoandW, kAmoorW,
  kAmominW, kAmomaxW, kAmominuW, kAmomaxuW,
  kLrD, kScD, kAmoswapD, kAmoaddD, kAmoxorD, kAmoandD, kAmoorD,
  kAmominD, kAmomaxD, kAmominuD, kAmomaxuD,
  // Privileged.
  kSret, kMret, kWfi, kSfenceVma,
  kHfenceVvma, kHfenceGvma,
};

const char* OpName(Op op);

// True for instructions whose execution depends on or modifies privileged state: the
// trap-and-emulate surface of the monitor (paper §4.1 — "MIRALIS has support for 12").
bool OpIsPrivileged(Op op);

// A decoded instruction. Fields not applicable to a given Op are zero.
struct DecodedInstr {
  Op op = Op::kInvalid;
  uint8_t rd = 0;
  uint8_t rs1 = 0;
  uint8_t rs2 = 0;
  int64_t imm = 0;    // sign-extended immediate (I/S/B/U/J as appropriate)
  uint16_t csr = 0;   // CSR address for Zicsr ops
  uint8_t zimm = 0;   // 5-bit immediate for CSR immediate forms
  uint32_t raw = 0;   // original encoding, for mtval and diagnostics

  bool valid() const { return op != Op::kInvalid; }
};

// Decodes a 32-bit instruction word. Returns op == kInvalid for undecodable words.
DecodedInstr Decode(uint32_t word);

// -- The block-op table (DESIGN.md §2f). ---------------------------------------------
// Every Op a lowered block may contain besides lui/auipc/jal/jalr, grouped by operand
// form. Each lowers 1:1 to the LoweredOp of the same name. The lists generate
// LoweredOp, SuperblockClass, LoweredOpFor, the interpreter's case lists and the
// block executor's handlers, so an op's class and form are stated once.
#define VFM_ALU_IMM_OPS(X)                                                    \
  X(Addi) X(Slti) X(Sltiu) X(Xori) X(Ori) X(Andi) X(Slli) X(Srli) X(Srai)    \
  X(Addiw) X(Slliw) X(Srliw) X(Sraiw)
#define VFM_ALU_REG_OPS(X)                                                    \
  X(Add) X(Sub) X(Sll) X(Slt) X(Sltu) X(Xor) X(Srl) X(Sra) X(Or) X(And)      \
  X(Addw) X(Subw) X(Sllw) X(Srlw) X(Sraw)                                     \
  X(Mul) X(Mulh) X(Mulhsu) X(Mulhu) X(Div) X(Divu) X(Rem) X(Remu)            \
  X(Mulw) X(Divw) X(Divuw) X(Remw) X(Remuw)
#define VFM_BRANCH_OPS(X) X(Beq) X(Bne) X(Blt) X(Bge) X(Bltu) X(Bgeu)
#define VFM_LOAD_OPS(X) X(Lb) X(Lh) X(Lw) X(Ld) X(Lbu) X(Lhu) X(Lwu)
#define VFM_STORE_OPS(X) X(Sb) X(Sh) X(Sw) X(Sd)

// How a block may hold an op. kSimple ops only touch GPRs, kMem ops touch memory
// (fast-pathed, with fallback), kBranch ops redirect control (a block's final
// member), and kBarrier ops can change privilege/CSR/translation/interrupt state, so
// a block always ends before one.
enum class SbClass : uint8_t {
  kSimple = 0,
  kMem = 1,
  kBranch = 2,
  kBarrier = 3,
};
SbClass SuperblockClass(Op op);

// Lowered-op vocabulary of the block executor: the table's ops plus the forms the
// lowering creates. lui/auipc become kConst, `li`/`auipc`+ALU-immediate chains fold
// into one kConstChain, x0-targeted ALU ops become kNop, link-less jumps become
// kJ/kJr, and compare+branch-on-zero pairs fuse (kSlt*B*z). kEnd terminates blocks
// that do not end in a branch (and doubles as "not lowerable" from LoweredOpFor).
#define VFM_LOWERED_OPS(X)                                                    \
  X(End) X(Nop) X(Const) X(ConstChain)                                        \
  VFM_ALU_IMM_OPS(X) VFM_ALU_REG_OPS(X) VFM_BRANCH_OPS(X)                     \
  X(J) X(Jal) X(Jr) X(Jalr)                                                   \
  X(SltBeqz) X(SltBnez) X(SltuBeqz) X(SltuBnez)                               \
  X(SltiBeqz) X(SltiBnez) X(SltiuBeqz) X(SltiuBnez)                           \
  VFM_LOAD_OPS(X) VFM_STORE_OPS(X)

enum class LoweredOp : uint8_t {
#define VFM_X(name) k##name,
  VFM_LOWERED_OPS(VFM_X)
#undef VFM_X
};

// The 1:1 part of the lowering: the LoweredOp an Op maps to before folding and
// fusion refine it. Returns kEnd for ops that cannot appear inside a block
// (SbClass::kBarrier and kInvalid).
LoweredOp LoweredOpFor(Op op);

// True for the register-immediate ALU ops: the ones the constant folder evaluates.
constexpr bool IsAluImm(Op op) {
  switch (op) {
#define VFM_X(name) case Op::k##name:
    VFM_ALU_IMM_OPS(VFM_X)
#undef VFM_X
    return true;
    default:
      return false;
  }
}

// -- The one definition of the RV64IM integer semantics. -----------------------------
// The interpreter, the block executor's handlers and the lowering's constant folder
// all compute through these helpers.

// Result of an ALU op: `a` is rs1, `b` is rs2 or the sign-extended immediate.
// Always inlined: with a constant `op` each call folds to the bare formula.
[[gnu::always_inline]] constexpr uint64_t AluResult(Op op, uint64_t a, uint64_t b) {
  const auto s = [](uint64_t v) { return static_cast<int64_t>(v); };
  const auto w = [](uint64_t v) {  // RV64 W forms: sign-extend bit 31
    return static_cast<uint64_t>(static_cast<int64_t>(static_cast<int32_t>(v)));
  };
  switch (op) {
    case Op::kAdd:
    case Op::kAddi:
      return a + b;
    case Op::kSub:
      return a - b;
    case Op::kSll:
    case Op::kSlli:
      return a << (b & 63);
    case Op::kSlt:
    case Op::kSlti:
      return s(a) < s(b) ? 1 : 0;
    case Op::kSltu:
    case Op::kSltiu:
      return a < b ? 1 : 0;
    case Op::kXor:
    case Op::kXori:
      return a ^ b;
    case Op::kSrl:
    case Op::kSrli:
      return a >> (b & 63);
    case Op::kSra:
    case Op::kSrai:
      return static_cast<uint64_t>(s(a) >> (b & 63));
    case Op::kOr:
    case Op::kOri:
      return a | b;
    case Op::kAnd:
    case Op::kAndi:
      return a & b;
    case Op::kAddw:
    case Op::kAddiw:
      return w(a + b);
    case Op::kSubw:
      return w(a - b);
    case Op::kSllw:
    case Op::kSlliw:
      return w(a << (b & 31));
    case Op::kSrlw:
    case Op::kSrliw:
      return w((a & 0xFFFFFFFF) >> (b & 31));
    case Op::kSraw:
    case Op::kSraiw:
      return static_cast<uint64_t>(s(w(a)) >> (b & 31));
    case Op::kMul:
      return a * b;
    case Op::kMulh:
      return static_cast<uint64_t>(
          static_cast<unsigned __int128>(static_cast<__int128>(s(a)) * s(b)) >> 64);
    case Op::kMulhsu:
      return static_cast<uint64_t>(
          static_cast<unsigned __int128>(static_cast<__int128>(s(a)) * static_cast<__int128>(b)) >>
          64);
    case Op::kMulhu:
      return static_cast<uint64_t>((static_cast<unsigned __int128>(a) * b) >> 64);
    case Op::kDiv:
      if (b == 0) {
        return ~uint64_t{0};
      }
      return s(a) == INT64_MIN && s(b) == -1 ? a : static_cast<uint64_t>(s(a) / s(b));
    case Op::kDivu:
      return b == 0 ? ~uint64_t{0} : a / b;
    case Op::kRem:
      if (b == 0) {
        return a;
      }
      return s(a) == INT64_MIN && s(b) == -1 ? 0 : static_cast<uint64_t>(s(a) % s(b));
    case Op::kRemu:
      return b == 0 ? a : a % b;
    case Op::kMulw:
      return w(a * b);
    case Op::kDivw: {
      const int32_t x = static_cast<int32_t>(a);
      const int32_t y = static_cast<int32_t>(b);
      if (y == 0) {
        return ~uint64_t{0};
      }
      return x == INT32_MIN && y == -1 ? w(a) : w(static_cast<uint64_t>(x / y));
    }
    case Op::kDivuw: {
      const uint32_t x = static_cast<uint32_t>(a);
      const uint32_t y = static_cast<uint32_t>(b);
      return w(y == 0 ? ~uint32_t{0} : x / y);
    }
    case Op::kRemw: {
      const int32_t x = static_cast<int32_t>(a);
      const int32_t y = static_cast<int32_t>(b);
      if (y == 0) {
        return w(a);
      }
      return x == INT32_MIN && y == -1 ? 0 : w(static_cast<uint64_t>(x % y));
    }
    case Op::kRemuw: {
      const uint32_t x = static_cast<uint32_t>(a);
      const uint32_t y = static_cast<uint32_t>(b);
      return w(y == 0 ? x : x % y);
    }
    default:
      return 0;
  }
}

// Whether a conditional branch is taken on operands rs1 = `a`, rs2 = `b`.
constexpr bool BranchTaken(Op op, uint64_t a, uint64_t b) {
  switch (op) {
    case Op::kBeq:
      return a == b;
    case Op::kBne:
      return a != b;
    case Op::kBlt:
      return static_cast<int64_t>(a) < static_cast<int64_t>(b);
    case Op::kBge:
      return static_cast<int64_t>(a) >= static_cast<int64_t>(b);
    case Op::kBltu:
      return a < b;
    case Op::kBgeu:
      return a >= b;
    default:
      return false;
  }
}

// Target of jalr: rs1 + imm with bit 0 cleared.
constexpr uint64_t JalrTarget(uint64_t rs1, int64_t imm) {
  return (rs1 + static_cast<uint64_t>(imm)) & ~uint64_t{1};
}

// Bytes a load or store accesses (8 for any other op: test IsLoad/IsStore first).
constexpr unsigned AccessSize(Op op) {
  switch (op) {
    case Op::kLb:
    case Op::kLbu:
    case Op::kSb:
      return 1;
    case Op::kLh:
    case Op::kLhu:
    case Op::kSh:
      return 2;
    case Op::kLw:
    case Op::kLwu:
    case Op::kSw:
      return 4;
    default:
      return 8;
  }
}

constexpr bool IsLoad(Op op) { return op >= Op::kLb && op <= Op::kLwu; }
constexpr bool IsStore(Op op) { return op >= Op::kSb && op <= Op::kSd; }

// The register value a load writes, from the zero-extended bytes it read.
constexpr uint64_t LoadExtend(Op op, uint64_t raw) {
  switch (op) {
    case Op::kLb:
      return SignExtend(raw, 8);
    case Op::kLh:
      return SignExtend(raw, 16);
    case Op::kLw:
      return SignExtend(raw, 32);
    default:
      return raw;  // lbu/lhu/lwu/ld
  }
}

// Mul/div ops charge CostModel::instr_muldiv on top of the base instruction cost.
constexpr bool IsMulDiv(Op op) { return op >= Op::kMul && op <= Op::kRemuw; }

}  // namespace vfm

#endif  // SRC_ISA_INSTR_H_
