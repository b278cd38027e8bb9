#include "src/isa/instr.h"

#include "src/common/bits.h"

namespace vfm {

namespace {

// Major opcodes (bits [6:0]).
constexpr uint32_t kOpLui = 0x37;
constexpr uint32_t kOpAuipc = 0x17;
constexpr uint32_t kOpJal = 0x6F;
constexpr uint32_t kOpJalr = 0x67;
constexpr uint32_t kOpBranch = 0x63;
constexpr uint32_t kOpLoad = 0x03;
constexpr uint32_t kOpStore = 0x23;
constexpr uint32_t kOpImm = 0x13;
constexpr uint32_t kOpImm32 = 0x1B;
constexpr uint32_t kOpReg = 0x33;
constexpr uint32_t kOpReg32 = 0x3B;
constexpr uint32_t kOpMiscMem = 0x0F;
constexpr uint32_t kOpSystem = 0x73;
constexpr uint32_t kOpAmo = 0x2F;

int64_t ImmI(uint32_t w) { return static_cast<int64_t>(SignExtend(ExtractBits(w, 31, 20), 12)); }
int64_t ImmS(uint32_t w) {
  const uint64_t imm = (ExtractBits(w, 31, 25) << 5) | ExtractBits(w, 11, 7);
  return static_cast<int64_t>(SignExtend(imm, 12));
}
int64_t ImmB(uint32_t w) {
  const uint64_t imm = (Bit(w, 31) << 12) | (Bit(w, 7) << 11) | (ExtractBits(w, 30, 25) << 5) |
                       (ExtractBits(w, 11, 8) << 1);
  return static_cast<int64_t>(SignExtend(imm, 13));
}
int64_t ImmU(uint32_t w) { return static_cast<int64_t>(SignExtend(w & 0xFFFFF000u, 32)); }
int64_t ImmJ(uint32_t w) {
  const uint64_t imm = (Bit(w, 31) << 20) | (ExtractBits(w, 19, 12) << 12) | (Bit(w, 20) << 11) |
                       (ExtractBits(w, 30, 21) << 1);
  return static_cast<int64_t>(SignExtend(imm, 21));
}

DecodedInstr Make(Op op, uint32_t w) {
  DecodedInstr d;
  d.op = op;
  d.raw = w;
  d.rd = static_cast<uint8_t>(ExtractBits(w, 11, 7));
  d.rs1 = static_cast<uint8_t>(ExtractBits(w, 19, 15));
  d.rs2 = static_cast<uint8_t>(ExtractBits(w, 24, 20));
  return d;
}

DecodedInstr DecodeSystem(uint32_t w) {
  const uint32_t funct3 = static_cast<uint32_t>(ExtractBits(w, 14, 12));
  if (funct3 == 0) {
    // Privileged instructions are distinguished by funct7/rs2 with rd == rs1 == 0
    // (except sfence.vma which uses rs1/rs2 as operands).
    const uint32_t funct7 = static_cast<uint32_t>(ExtractBits(w, 31, 25));
    const uint32_t rs2 = static_cast<uint32_t>(ExtractBits(w, 24, 20));
    const uint32_t rd = static_cast<uint32_t>(ExtractBits(w, 11, 7));
    const uint32_t rs1 = static_cast<uint32_t>(ExtractBits(w, 19, 15));
    if (funct7 == 0x09) {
      DecodedInstr d = Make(Op::kSfenceVma, w);
      if (rd != 0) {
        d.op = Op::kInvalid;
      }
      return d;
    }
    if (funct7 == 0x11) {
      DecodedInstr d = Make(Op::kHfenceVvma, w);
      if (rd != 0) {
        d.op = Op::kInvalid;
      }
      return d;
    }
    if (funct7 == 0x31) {
      DecodedInstr d = Make(Op::kHfenceGvma, w);
      if (rd != 0) {
        d.op = Op::kInvalid;
      }
      return d;
    }
    if (rd != 0 || rs1 != 0) {
      return Make(Op::kInvalid, w);
    }
    if (funct7 == 0x00 && rs2 == 0) {
      return Make(Op::kEcall, w);
    }
    if (funct7 == 0x00 && rs2 == 1) {
      return Make(Op::kEbreak, w);
    }
    if (funct7 == 0x08 && rs2 == 2) {
      return Make(Op::kSret, w);
    }
    if (funct7 == 0x18 && rs2 == 2) {
      return Make(Op::kMret, w);
    }
    if (funct7 == 0x08 && rs2 == 5) {
      return Make(Op::kWfi, w);
    }
    return Make(Op::kInvalid, w);
  }
  if (funct3 == 4) {
    return Make(Op::kInvalid, w);  // hypervisor load/store: not modeled
  }
  static constexpr Op kCsrOps[8] = {Op::kInvalid, Op::kCsrrw,  Op::kCsrrs,  Op::kCsrrc,
                                    Op::kInvalid, Op::kCsrrwi, Op::kCsrrsi, Op::kCsrrci};
  DecodedInstr d = Make(kCsrOps[funct3], w);
  d.csr = static_cast<uint16_t>(ExtractBits(w, 31, 20));
  d.zimm = d.rs1;
  return d;
}

DecodedInstr DecodeAmo(uint32_t w) {
  const uint32_t funct3 = static_cast<uint32_t>(ExtractBits(w, 14, 12));
  const uint32_t funct5 = static_cast<uint32_t>(ExtractBits(w, 31, 27));
  if (funct3 != 2 && funct3 != 3) {
    return Make(Op::kInvalid, w);
  }
  const bool is64 = funct3 == 3;
  Op op = Op::kInvalid;
  switch (funct5) {
    case 0x02:
      op = is64 ? Op::kLrD : Op::kLrW;
      break;
    case 0x03:
      op = is64 ? Op::kScD : Op::kScW;
      break;
    case 0x01:
      op = is64 ? Op::kAmoswapD : Op::kAmoswapW;
      break;
    case 0x00:
      op = is64 ? Op::kAmoaddD : Op::kAmoaddW;
      break;
    case 0x04:
      op = is64 ? Op::kAmoxorD : Op::kAmoxorW;
      break;
    case 0x0C:
      op = is64 ? Op::kAmoandD : Op::kAmoandW;
      break;
    case 0x08:
      op = is64 ? Op::kAmoorD : Op::kAmoorW;
      break;
    case 0x10:
      op = is64 ? Op::kAmominD : Op::kAmominW;
      break;
    case 0x14:
      op = is64 ? Op::kAmomaxD : Op::kAmomaxW;
      break;
    case 0x18:
      op = is64 ? Op::kAmominuD : Op::kAmominuW;
      break;
    case 0x1C:
      op = is64 ? Op::kAmomaxuD : Op::kAmomaxuW;
      break;
    default:
      break;
  }
  DecodedInstr d = Make(op, w);
  if (op == Op::kLrW || op == Op::kLrD) {
    if (d.rs2 != 0) {
      d.op = Op::kInvalid;
    }
  }
  return d;
}

}  // namespace

DecodedInstr Decode(uint32_t w) {
  if ((w & 3) != 3) {
    return Make(Op::kInvalid, w);  // compressed instructions are not modeled
  }
  const uint32_t opcode = w & 0x7F;
  const uint32_t funct3 = static_cast<uint32_t>(ExtractBits(w, 14, 12));
  const uint32_t funct7 = static_cast<uint32_t>(ExtractBits(w, 31, 25));

  switch (opcode) {
    case kOpLui: {
      DecodedInstr d = Make(Op::kLui, w);
      d.imm = ImmU(w);
      return d;
    }
    case kOpAuipc: {
      DecodedInstr d = Make(Op::kAuipc, w);
      d.imm = ImmU(w);
      return d;
    }
    case kOpJal: {
      DecodedInstr d = Make(Op::kJal, w);
      d.imm = ImmJ(w);
      return d;
    }
    case kOpJalr: {
      if (funct3 != 0) {
        return Make(Op::kInvalid, w);
      }
      DecodedInstr d = Make(Op::kJalr, w);
      d.imm = ImmI(w);
      return d;
    }
    case kOpBranch: {
      static constexpr Op kOps[8] = {Op::kBeq,     Op::kBne,     Op::kInvalid, Op::kInvalid,
                                     Op::kBlt,     Op::kBge,     Op::kBltu,    Op::kBgeu};
      DecodedInstr d = Make(kOps[funct3], w);
      d.imm = ImmB(w);
      return d;
    }
    case kOpLoad: {
      static constexpr Op kOps[8] = {Op::kLb,  Op::kLh,  Op::kLw,      Op::kLd,
                                     Op::kLbu, Op::kLhu, Op::kLwu,     Op::kInvalid};
      DecodedInstr d = Make(kOps[funct3], w);
      d.imm = ImmI(w);
      return d;
    }
    case kOpStore: {
      static constexpr Op kOps[8] = {Op::kSb,      Op::kSh,      Op::kSw,      Op::kSd,
                                     Op::kInvalid, Op::kInvalid, Op::kInvalid, Op::kInvalid};
      DecodedInstr d = Make(kOps[funct3], w);
      d.imm = ImmS(w);
      return d;
    }
    case kOpImm: {
      DecodedInstr d = Make(Op::kInvalid, w);
      d.imm = ImmI(w);
      switch (funct3) {
        case 0:
          d.op = Op::kAddi;
          break;
        case 2:
          d.op = Op::kSlti;
          break;
        case 3:
          d.op = Op::kSltiu;
          break;
        case 4:
          d.op = Op::kXori;
          break;
        case 6:
          d.op = Op::kOri;
          break;
        case 7:
          d.op = Op::kAndi;
          break;
        case 1:
          if (ExtractBits(w, 31, 26) == 0) {
            d.op = Op::kSlli;
            d.imm = static_cast<int64_t>(ExtractBits(w, 25, 20));
          }
          break;
        case 5:
          if (ExtractBits(w, 31, 26) == 0) {
            d.op = Op::kSrli;
            d.imm = static_cast<int64_t>(ExtractBits(w, 25, 20));
          } else if (ExtractBits(w, 31, 26) == 0x10) {
            d.op = Op::kSrai;
            d.imm = static_cast<int64_t>(ExtractBits(w, 25, 20));
          }
          break;
        default:
          break;
      }
      return d;
    }
    case kOpImm32: {
      DecodedInstr d = Make(Op::kInvalid, w);
      d.imm = ImmI(w);
      switch (funct3) {
        case 0:
          d.op = Op::kAddiw;
          break;
        case 1:
          if (funct7 == 0) {
            d.op = Op::kSlliw;
            d.imm = static_cast<int64_t>(ExtractBits(w, 24, 20));
          }
          break;
        case 5:
          if (funct7 == 0) {
            d.op = Op::kSrliw;
            d.imm = static_cast<int64_t>(ExtractBits(w, 24, 20));
          } else if (funct7 == 0x20) {
            d.op = Op::kSraiw;
            d.imm = static_cast<int64_t>(ExtractBits(w, 24, 20));
          }
          break;
        default:
          break;
      }
      return d;
    }
    case kOpReg: {
      if (funct7 == 0x01) {
        static constexpr Op kOps[8] = {Op::kMul,  Op::kMulh,  Op::kMulhsu, Op::kMulhu,
                                       Op::kDiv,  Op::kDivu,  Op::kRem,    Op::kRemu};
        return Make(kOps[funct3], w);
      }
      if (funct7 == 0x00) {
        static constexpr Op kOps[8] = {Op::kAdd, Op::kSll,  Op::kSlt, Op::kSltu,
                                       Op::kXor, Op::kSrl,  Op::kOr,  Op::kAnd};
        return Make(kOps[funct3], w);
      }
      if (funct7 == 0x20) {
        if (funct3 == 0) {
          return Make(Op::kSub, w);
        }
        if (funct3 == 5) {
          return Make(Op::kSra, w);
        }
      }
      return Make(Op::kInvalid, w);
    }
    case kOpReg32: {
      if (funct7 == 0x01) {
        static constexpr Op kOps[8] = {Op::kMulw,    Op::kInvalid, Op::kInvalid, Op::kInvalid,
                                       Op::kDivw,    Op::kDivuw,   Op::kRemw,    Op::kRemuw};
        return Make(kOps[funct3], w);
      }
      if (funct7 == 0x00) {
        if (funct3 == 0) {
          return Make(Op::kAddw, w);
        }
        if (funct3 == 1) {
          return Make(Op::kSllw, w);
        }
        if (funct3 == 5) {
          return Make(Op::kSrlw, w);
        }
      }
      if (funct7 == 0x20) {
        if (funct3 == 0) {
          return Make(Op::kSubw, w);
        }
        if (funct3 == 5) {
          return Make(Op::kSraw, w);
        }
      }
      return Make(Op::kInvalid, w);
    }
    case kOpMiscMem: {
      if (funct3 == 0) {
        return Make(Op::kFence, w);
      }
      if (funct3 == 1) {
        return Make(Op::kFenceI, w);
      }
      return Make(Op::kInvalid, w);
    }
    case kOpSystem:
      return DecodeSystem(w);
    case kOpAmo:
      return DecodeAmo(w);
    default:
      return Make(Op::kInvalid, w);
  }
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kInvalid: return "invalid";
    case Op::kLui: return "lui";
    case Op::kAuipc: return "auipc";
    case Op::kJal: return "jal";
    case Op::kJalr: return "jalr";
    case Op::kBeq: return "beq";
    case Op::kBne: return "bne";
    case Op::kBlt: return "blt";
    case Op::kBge: return "bge";
    case Op::kBltu: return "bltu";
    case Op::kBgeu: return "bgeu";
    case Op::kLb: return "lb";
    case Op::kLh: return "lh";
    case Op::kLw: return "lw";
    case Op::kLd: return "ld";
    case Op::kLbu: return "lbu";
    case Op::kLhu: return "lhu";
    case Op::kLwu: return "lwu";
    case Op::kSb: return "sb";
    case Op::kSh: return "sh";
    case Op::kSw: return "sw";
    case Op::kSd: return "sd";
    case Op::kAddi: return "addi";
    case Op::kSlti: return "slti";
    case Op::kSltiu: return "sltiu";
    case Op::kXori: return "xori";
    case Op::kOri: return "ori";
    case Op::kAndi: return "andi";
    case Op::kSlli: return "slli";
    case Op::kSrli: return "srli";
    case Op::kSrai: return "srai";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kSll: return "sll";
    case Op::kSlt: return "slt";
    case Op::kSltu: return "sltu";
    case Op::kXor: return "xor";
    case Op::kSrl: return "srl";
    case Op::kSra: return "sra";
    case Op::kOr: return "or";
    case Op::kAnd: return "and";
    case Op::kAddiw: return "addiw";
    case Op::kSlliw: return "slliw";
    case Op::kSrliw: return "srliw";
    case Op::kSraiw: return "sraiw";
    case Op::kAddw: return "addw";
    case Op::kSubw: return "subw";
    case Op::kSllw: return "sllw";
    case Op::kSrlw: return "srlw";
    case Op::kSraw: return "sraw";
    case Op::kFence: return "fence";
    case Op::kFenceI: return "fence.i";
    case Op::kEcall: return "ecall";
    case Op::kEbreak: return "ebreak";
    case Op::kCsrrw: return "csrrw";
    case Op::kCsrrs: return "csrrs";
    case Op::kCsrrc: return "csrrc";
    case Op::kCsrrwi: return "csrrwi";
    case Op::kCsrrsi: return "csrrsi";
    case Op::kCsrrci: return "csrrci";
    case Op::kMul: return "mul";
    case Op::kMulh: return "mulh";
    case Op::kMulhsu: return "mulhsu";
    case Op::kMulhu: return "mulhu";
    case Op::kDiv: return "div";
    case Op::kDivu: return "divu";
    case Op::kRem: return "rem";
    case Op::kRemu: return "remu";
    case Op::kMulw: return "mulw";
    case Op::kDivw: return "divw";
    case Op::kDivuw: return "divuw";
    case Op::kRemw: return "remw";
    case Op::kRemuw: return "remuw";
    case Op::kLrW: return "lr.w";
    case Op::kScW: return "sc.w";
    case Op::kAmoswapW: return "amoswap.w";
    case Op::kAmoaddW: return "amoadd.w";
    case Op::kAmoxorW: return "amoxor.w";
    case Op::kAmoandW: return "amoand.w";
    case Op::kAmoorW: return "amoor.w";
    case Op::kAmominW: return "amomin.w";
    case Op::kAmomaxW: return "amomax.w";
    case Op::kAmominuW: return "amominu.w";
    case Op::kAmomaxuW: return "amomaxu.w";
    case Op::kLrD: return "lr.d";
    case Op::kScD: return "sc.d";
    case Op::kAmoswapD: return "amoswap.d";
    case Op::kAmoaddD: return "amoadd.d";
    case Op::kAmoxorD: return "amoxor.d";
    case Op::kAmoandD: return "amoand.d";
    case Op::kAmoorD: return "amoor.d";
    case Op::kAmominD: return "amomin.d";
    case Op::kAmomaxD: return "amomax.d";
    case Op::kAmominuD: return "amominu.d";
    case Op::kAmomaxuD: return "amomaxu.d";
    case Op::kSret: return "sret";
    case Op::kMret: return "mret";
    case Op::kWfi: return "wfi";
    case Op::kSfenceVma: return "sfence.vma";
    case Op::kHfenceVvma: return "hfence.vvma";
    case Op::kHfenceGvma: return "hfence.gvma";
  }
  return "?";
}

bool OpIsPrivileged(Op op) {
  switch (op) {
    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc:
    case Op::kCsrrwi:
    case Op::kCsrrsi:
    case Op::kCsrrci:
    case Op::kSret:
    case Op::kMret:
    case Op::kWfi:
    case Op::kSfenceVma:
    case Op::kHfenceVvma:
    case Op::kHfenceGvma:
    case Op::kEcall:
    case Op::kEbreak:
      return true;
    default:
      return false;
  }
}

SbClass SuperblockClass(Op op) {
  switch (op) {
#define VFM_X(name) case Op::k##name:
    case Op::kLui:
    case Op::kAuipc:
    VFM_ALU_IMM_OPS(VFM_X)
    VFM_ALU_REG_OPS(VFM_X)
    return SbClass::kSimple;
    VFM_LOAD_OPS(VFM_X)
    VFM_STORE_OPS(VFM_X)
    return SbClass::kMem;
    case Op::kJal:
    case Op::kJalr:
    VFM_BRANCH_OPS(VFM_X)
    return SbClass::kBranch;
#undef VFM_X
    default:
      // CSR ops, ecall/ebreak, xRET, WFI, fences, AMOs, and undecodable words: all can
      // trap, change translation/interrupt state, or need per-instruction ordering.
      return SbClass::kBarrier;
  }
}

LoweredOp LoweredOpFor(Op op) {
  switch (op) {
#define VFM_X(name) \
  case Op::k##name: \
    return LoweredOp::k##name;
    VFM_ALU_IMM_OPS(VFM_X)
    VFM_ALU_REG_OPS(VFM_X)
    VFM_BRANCH_OPS(VFM_X)
    VFM_LOAD_OPS(VFM_X)
    VFM_STORE_OPS(VFM_X)
    VFM_X(Jal)
    VFM_X(Jalr)
#undef VFM_X
    case Op::kLui:
    case Op::kAuipc:
      return LoweredOp::kConst;
    default:
      return LoweredOp::kEnd;  // barriers/invalid: never lowerable inside a block
  }
}

}  // namespace vfm
