#include "src/verif/verif.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "src/common/bits.h"
#include "src/common/rng.h"
#include "src/core/vpmp.h"
#include "src/isa/disasm.h"

namespace vfm {

namespace {

using Clock = std::chrono::steady_clock;

double Elapsed(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string Describe(const char* context, const std::string& what, uint64_t lhs, uint64_t rhs) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "[%s] %s: monitor=0x%llx ref=0x%llx", context, what.c_str(),
                static_cast<unsigned long long>(lhs), static_cast<unsigned long long>(rhs));
  return buf;
}

void Note(VerifResult* result, std::string description) {
  ++result->mismatches;
  if (result->examples.size() < 5) {
    result->examples.push_back(std::move(description));
  }
}

// Encodes a CSR instruction for the end-to-end sweep.
uint32_t EncodeCsrOp(unsigned funct3, uint16_t csr, unsigned rs1_or_zimm, unsigned rd) {
  return (static_cast<uint32_t>(csr) << 20) | (rs1_or_zimm << 15) | (funct3 << 12) | (rd << 7) |
         0x73;
}

constexpr uint32_t kMretRaw = 0x30200073;
constexpr uint32_t kSretRaw = 0x10200073;
constexpr uint32_t kWfiRaw = 0x10500073;
constexpr uint32_t kEcallRaw = 0x00000073;
constexpr uint32_t kEbreakRaw = 0x00100073;
constexpr uint32_t kSfenceRaw = 0x12000073;

const PrivMode kPrivs[3] = {PrivMode::kUser, PrivMode::kSupervisor, PrivMode::kMachine};

}  // namespace

Verifier::Verifier(uint64_t seed)
    : vconfig_(VirtualHartIsa(HartIsaConfig{})), seed_(seed), state_rng_(seed) {
  rconfig_.pmp_entries = vconfig_.pmp_entries;

  // The CSR list swept by the harness: the full virtual platform, including absent
  // CSRs (time, and mtval2, mtinst and hstatus without the H extension) whose
  // illegality must agree, WARL-zero PMP registers past the implemented count, and
  // hardwired-zero performance counters.
  csr_list_ = {
      kCsrMstatus,   kCsrMisa,      kCsrMedeleg,   kCsrMideleg,    kCsrMie,
      kCsrMtvec,     kCsrMcounteren, kCsrMenvcfg,  kCsrMcountinhibit, kCsrMscratch,
      kCsrMepc,      kCsrMcause,    kCsrMtval,     kCsrMip,        kCsrMseccfg,
      kCsrMcycle,    kCsrMinstret,  kCsrMvendorid, kCsrMarchid,    kCsrMimpid,
      kCsrMhartid,   kCsrMconfigptr, kCsrSstatus,  kCsrSie,        kCsrStvec,
      kCsrScounteren, kCsrSenvcfg,  kCsrSscratch,  kCsrSepc,       kCsrScause,
      kCsrStval,     kCsrSip,       kCsrSatp,      kCsrCycle,      kCsrInstret,
      kCsrTime,      kCsrStimecmp,  kCsrMtval2,    kCsrMtinst,     kCsrHstatus,
  };
  csr_list_.push_back(CsrPmpcfg(0));
  csr_list_.push_back(CsrPmpcfg(1));  // pmpcfg2: entries beyond the implemented count
  for (unsigned i = 0; i < 8; ++i) {
    csr_list_.push_back(CsrPmpaddr(i));
  }
  csr_list_.push_back(CsrMhpmcounter(3));
  csr_list_.push_back(CsrMhpmcounter(17));
  csr_list_.push_back(CsrMhpmevent(3));
  csr_list_.push_back(CsrHpmcounter(4));
}

Verifier::SyncedState Verifier::MakeRandomState() {
  Rng& rng = state_rng_;
  SyncedState state(vconfig_);
  CsrFile& v = state.vctx.csrs();

  // Drive every writable CSR with an adversarial value through the monitor's own
  // WARL legalization...
  for (uint16_t addr : csr_list_) {
    if (CsrIsReadOnly(addr) || !v.CsrExists(addr)) {
      continue;
    }
    v.Set(addr, rng.NextAdversarial());
  }
  // ...including the virtual interrupt lines the virtual CLINT drives.
  v.SetInterruptLine(InterruptCause::kMachineTimer, rng.Chance(1, 2));
  v.SetInterruptLine(InterruptCause::kMachineSoftware, rng.Chance(1, 2));
  v.SetInterruptLine(InterruptCause::kMachineExternal, rng.Chance(1, 2));

  const uint64_t pc = rng.Next() & ~uint64_t{3} & MaskLow(48);
  state.vctx.set_pc(pc);
  state.vctx.set_priv(kPrivs[rng.NextBelow(3)]);

  // Mirror the resulting architectural state into the reference model, field by
  // field, so both start from the identical point in S.
  RefState& r = state.ref;
  r.pc = pc;
  r.priv = state.vctx.priv();
  r.mstatus = v.Get(kCsrMstatus);
  r.medeleg = v.Get(kCsrMedeleg);
  r.mideleg = v.Get(kCsrMideleg);
  r.mie = v.Get(kCsrMie);
  r.mip = v.Get(kCsrMip);  // the effective view, lines included
  r.mtvec = v.Get(kCsrMtvec);
  r.mcounteren = v.Get(kCsrMcounteren);
  r.menvcfg = v.Get(kCsrMenvcfg);
  r.mcountinhibit = v.Get(kCsrMcountinhibit);
  r.mscratch = v.Get(kCsrMscratch);
  r.mepc = v.Get(kCsrMepc);
  r.mcause = v.Get(kCsrMcause);
  r.mtval = v.Get(kCsrMtval);
  r.mseccfg = v.Get(kCsrMseccfg);
  r.mcycle = v.Get(kCsrMcycle);
  r.minstret = v.Get(kCsrMinstret);
  r.stvec = v.Get(kCsrStvec);
  r.scounteren = v.Get(kCsrScounteren);
  r.senvcfg = v.Get(kCsrSenvcfg);
  r.sscratch = v.Get(kCsrSscratch);
  r.sepc = v.Get(kCsrSepc);
  r.scause = v.Get(kCsrScause);
  r.stval = v.Get(kCsrStval);
  r.satp = v.Get(kCsrSatp);
  for (unsigned i = 0; i < vconfig_.pmp_entries; ++i) {
    r.pmpcfg[i] = v.pmp().GetCfg(i).ToByte();
    r.pmpaddr[i] = v.pmp().GetAddr(i);
  }
  return state;
}

uint64_t Verifier::CompareStates(const VirtContext& vctx, const RefState& ref,
                                 const uint64_t* gprs, const char* context,
                                 VerifResult* result) {
  uint64_t mismatches = 0;
  for (uint16_t addr : csr_list_) {
    if (!vctx.csrs().CsrExists(addr)) {
      continue;
    }
    const uint64_t lhs = vctx.csrs().Get(addr);
    const uint64_t rhs = RefCsrGet(rconfig_, ref, addr);
    if (lhs != rhs) {
      ++mismatches;
      Note(result, Describe(context, CsrName(addr), lhs, rhs));
    }
  }
  if (vctx.pc() != ref.pc) {
    ++mismatches;
    Note(result, Describe(context, "pc", vctx.pc(), ref.pc));
  }
  if (vctx.priv() != ref.priv) {
    ++mismatches;
    Note(result, Describe(context, "priv", static_cast<uint64_t>(vctx.priv()),
                          static_cast<uint64_t>(ref.priv)));
  }
  if (gprs != nullptr) {
    for (unsigned i = 0; i < 32; ++i) {
      if (gprs[i] != ref.gpr[i]) {
        ++mismatches;
        Note(result, Describe(context, std::string("x") + std::to_string(i), gprs[i],
                              ref.gpr[i]));
      }
    }
  }
  return mismatches;
}

VerifResult Verifier::VerifyDecoder() {
  VerifResult result;
  result.task = "instruction decoder";
  const auto start = Clock::now();
  Rng rng(seed_ ^ 0xDEC0DE);

  // Round trip: every CSR-op form with random fields must decode to its fields.
  for (unsigned funct3 = 1; funct3 <= 7; ++funct3) {
    if (funct3 == 4) {
      continue;
    }
    for (unsigned iter = 0; iter < 4096; ++iter) {
      const uint16_t csr = static_cast<uint16_t>(rng.NextBelow(4096));
      const unsigned rs1 = static_cast<unsigned>(rng.NextBelow(32));
      const unsigned rd = static_cast<unsigned>(rng.NextBelow(32));
      const uint32_t raw = EncodeCsrOp(funct3, csr, rs1, rd);
      const DecodedInstr d = Decode(raw);
      ++result.cases;
      const bool ok = d.valid() && d.csr == csr && d.rd == rd &&
                      (funct3 >= 5 ? d.zimm == rs1 : d.rs1 == rs1) && OpIsPrivileged(d.op);
      if (!ok) {
        Note(&result, Describe("decoder", Disassemble(raw), raw, 0));
      }
    }
  }
  // The fixed privileged encodings.
  struct Fixed {
    uint32_t raw;
    Op op;
  };
  const Fixed fixed[] = {{kMretRaw, Op::kMret},   {kSretRaw, Op::kSret}, {kWfiRaw, Op::kWfi},
                         {kEcallRaw, Op::kEcall}, {kEbreakRaw, Op::kEbreak},
                         {kSfenceRaw, Op::kSfenceVma}};
  for (const Fixed& f : fixed) {
    ++result.cases;
    if (Decode(f.raw).op != f.op) {
      Note(&result, Describe("decoder", "fixed encoding", f.raw, static_cast<uint64_t>(f.op)));
    }
  }
  // Robustness: the decoder must classify every SYSTEM-opcode word without crashing,
  // and never mark a word with a nonzero rd as mret/sret/wfi.
  for (uint64_t iter = 0; iter < 200'000; ++iter) {
    const uint32_t raw = (static_cast<uint32_t>(rng.Next()) & ~0x7Fu) | 0x73;
    const DecodedInstr d = Decode(raw);
    ++result.cases;
    if ((d.op == Op::kMret || d.op == Op::kSret || d.op == Op::kWfi) &&
        (ExtractBits(raw, 11, 7) != 0 || ExtractBits(raw, 19, 15) != 0)) {
      Note(&result, Describe("decoder", "xret with nonzero rd/rs1 accepted", raw, 0));
    }
  }
  result.seconds = Elapsed(start);
  return result;
}

VerifResult Verifier::VerifyCsrRead(uint64_t states_per_csr) {
  VerifResult result;
  result.task = "CSR read";
  const auto start = Clock::now();
  for (uint16_t addr : csr_list_) {
    for (uint64_t iter = 0; iter < states_per_csr; ++iter) {
      SyncedState state = MakeRandomState();
      for (PrivMode priv : kPrivs) {
        ++result.cases;
        uint64_t lhs = 0;
        uint64_t rhs = 0;
        const bool ok_lhs = state.vctx.csrs().ReadCsr(addr, priv, /*virt=*/false, &lhs);
        const bool ok_rhs = RefCsrRead(rconfig_, state.ref, addr, priv, &rhs);
        if (ok_lhs != ok_rhs) {
          Note(&result, Describe("csr-read legality", CsrName(addr), ok_lhs, ok_rhs));
        } else if (ok_lhs && lhs != rhs) {
          Note(&result, Describe("csr-read value", CsrName(addr), lhs, rhs));
        }
      }
    }
  }
  result.seconds = Elapsed(start);
  return result;
}

VerifResult Verifier::VerifyCsrWrite(uint64_t values_per_csr) {
  VerifResult result;
  result.task = "CSR write";
  const auto start = Clock::now();
  Rng rng(seed_ ^ 0xC5F);
  for (uint16_t addr : csr_list_) {
    for (uint64_t iter = 0; iter < values_per_csr; ++iter) {
      SyncedState state = MakeRandomState();
      const uint64_t value = rng.NextAdversarial();
      for (PrivMode priv : {PrivMode::kSupervisor, PrivMode::kMachine}) {
        ++result.cases;
        const bool ok_lhs = state.vctx.csrs().WriteCsr(addr, priv, /*virt=*/false, value);
        const bool ok_rhs = RefCsrWrite(rconfig_, &state.ref, addr, priv, value);
        if (ok_lhs != ok_rhs) {
          Note(&result, Describe("csr-write legality", CsrName(addr), ok_lhs, ok_rhs));
          continue;
        }
        CompareStates(state.vctx, state.ref, nullptr, CsrName(addr).c_str(), &result);
      }
    }
  }
  result.seconds = Elapsed(start);
  return result;
}

VerifResult Verifier::VerifyMret() {
  VerifResult result;
  result.task = "mret instruction";
  const auto start = Clock::now();
  const DecodedInstr mret = Decode(kMretRaw);
  for (PrivMode priv : kPrivs) {
    for (unsigned bits = 0; bits < 2048; ++bits) {
      SyncedState state = MakeRandomState();
      uint64_t mstatus = state.vctx.csrs().Get(kCsrMstatus);
      mstatus = InsertBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo, bits & 3);
      mstatus = SetBit(mstatus, MstatusBits::kMpie, (bits >> 2) & 1);
      mstatus = SetBit(mstatus, MstatusBits::kMie, (bits >> 3) & 1);
      mstatus = SetBit(mstatus, MstatusBits::kMprv, (bits >> 4) & 1);
      mstatus = SetBit(mstatus, MstatusBits::kSpp, (bits >> 5) & 1);
      mstatus = SetBit(mstatus, MstatusBits::kSpie, (bits >> 6) & 1);
      mstatus = SetBit(mstatus, MstatusBits::kSie, (bits >> 7) & 1);
      mstatus = SetBit(mstatus, MstatusBits::kTsr, (bits >> 8) & 1);
      mstatus = SetBit(mstatus, MstatusBits::kTw, (bits >> 9) & 1);
      state.vctx.csrs().Set(kCsrMstatus, mstatus);
      state.ref.mstatus = state.vctx.csrs().Get(kCsrMstatus);
      state.vctx.set_priv(priv);
      state.ref.priv = priv;

      uint64_t gprs[32] = {};
      state.vctx.EmulatePrivileged(mret, gprs);
      const RefStepResult ref = RefStep(rconfig_, state.ref, mret);
      state.ref = ref.state;
      ++result.cases;
      CompareStates(state.vctx, state.ref, nullptr, "mret", &result);
    }
  }
  result.seconds = Elapsed(start);
  return result;
}

VerifResult Verifier::VerifySret() {
  VerifResult result;
  result.task = "sret instruction";
  const auto start = Clock::now();
  const DecodedInstr sret = Decode(kSretRaw);
  for (PrivMode priv : kPrivs) {
    for (unsigned bits = 0; bits < 2048; ++bits) {
      SyncedState state = MakeRandomState();
      uint64_t mstatus = state.vctx.csrs().Get(kCsrMstatus);
      mstatus = InsertBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo, bits & 3);
      mstatus = SetBit(mstatus, MstatusBits::kSpp, (bits >> 2) & 1);
      mstatus = SetBit(mstatus, MstatusBits::kSpie, (bits >> 3) & 1);
      mstatus = SetBit(mstatus, MstatusBits::kSie, (bits >> 4) & 1);
      mstatus = SetBit(mstatus, MstatusBits::kTsr, (bits >> 5) & 1);
      mstatus = SetBit(mstatus, MstatusBits::kMprv, (bits >> 6) & 1);
      state.vctx.csrs().Set(kCsrMstatus, mstatus);
      state.ref.mstatus = state.vctx.csrs().Get(kCsrMstatus);
      state.vctx.set_priv(priv);
      state.ref.priv = priv;

      uint64_t gprs[32] = {};
      state.vctx.EmulatePrivileged(sret, gprs);
      const RefStepResult ref = RefStep(rconfig_, state.ref, sret);
      state.ref = ref.state;
      ++result.cases;
      CompareStates(state.vctx, state.ref, nullptr, "sret", &result);
    }
  }
  result.seconds = Elapsed(start);
  return result;
}

VerifResult Verifier::VerifyWfi() {
  VerifResult result;
  result.task = "wfi instruction";
  const auto start = Clock::now();
  const DecodedInstr wfi = Decode(kWfiRaw);
  for (PrivMode priv : kPrivs) {
    for (unsigned bits = 0; bits < 512; ++bits) {
      SyncedState state = MakeRandomState();
      uint64_t mstatus = state.vctx.csrs().Get(kCsrMstatus);
      mstatus = SetBit(mstatus, MstatusBits::kTw, bits & 1);
      mstatus = SetBit(mstatus, MstatusBits::kTsr, (bits >> 1) & 1);
      mstatus = SetBit(mstatus, MstatusBits::kMie, (bits >> 2) & 1);
      mstatus = SetBit(mstatus, MstatusBits::kSie, (bits >> 3) & 1);
      state.vctx.csrs().Set(kCsrMstatus, mstatus);
      state.ref.mstatus = state.vctx.csrs().Get(kCsrMstatus);
      state.vctx.set_priv(priv);
      state.ref.priv = priv;

      uint64_t gprs[32] = {};
      state.vctx.EmulatePrivileged(wfi, gprs);
      const RefStepResult ref = RefStep(rconfig_, state.ref, wfi);
      state.ref = ref.state;
      ++result.cases;
      CompareStates(state.vctx, state.ref, nullptr, "wfi", &result);
    }
  }
  result.seconds = Elapsed(start);
  return result;
}

VerifResult Verifier::VerifyVirtualInterrupt() {
  VerifResult result;
  result.task = "virtual interrupt";
  const auto start = Clock::now();
  const uint64_t bit_positions[6] = {1, 3, 5, 7, 9, 11};
  for (unsigned mip_bits = 0; mip_bits < 64; ++mip_bits) {
    for (unsigned mie_bits = 0; mie_bits < 64; ++mie_bits) {
      for (unsigned deleg_bits = 0; deleg_bits < 8; ++deleg_bits) {
        for (unsigned enables = 0; enables < 4; ++enables) {
          for (PrivMode priv : kPrivs) {
            SyncedState state = MakeRandomState();
            CsrFile& v = state.vctx.csrs();
            uint64_t mip = 0;
            uint64_t mie = 0;
            for (unsigned i = 0; i < 6; ++i) {
              mip |= ((mip_bits >> i) & 1) ? (uint64_t{1} << bit_positions[i]) : 0;
              mie |= ((mie_bits >> i) & 1) ? (uint64_t{1} << bit_positions[i]) : 0;
            }
            uint64_t mideleg = 0;
            mideleg |= (deleg_bits & 1) ? (uint64_t{1} << 1) : 0;
            mideleg |= (deleg_bits & 2) ? (uint64_t{1} << 5) : 0;
            mideleg |= (deleg_bits & 4) ? (uint64_t{1} << 9) : 0;

            v.set_mip_sw(mip);  // keeps the software-writable supervisor bits
            v.SetInterruptLine(InterruptCause::kMachineSoftware, (mip >> 3) & 1);
            v.SetInterruptLine(InterruptCause::kMachineTimer, (mip >> 7) & 1);
            v.SetInterruptLine(InterruptCause::kMachineExternal, (mip >> 11) & 1);
            v.Set(kCsrMie, mie);
            v.Set(kCsrMideleg, mideleg);
            uint64_t mstatus = v.Get(kCsrMstatus);
            mstatus = SetBit(mstatus, MstatusBits::kMie, enables & 1);
            mstatus = SetBit(mstatus, MstatusBits::kSie, (enables >> 1) & 1);
            v.Set(kCsrMstatus, mstatus);
            state.vctx.set_priv(priv);

            state.ref.mip = v.Get(kCsrMip);
            state.ref.mie = v.Get(kCsrMie);
            state.ref.mideleg = v.Get(kCsrMideleg);
            state.ref.mstatus = v.Get(kCsrMstatus);
            state.ref.priv = priv;

            const auto lhs = state.vctx.PendingVirtualInterrupt();
            const auto rhs = RefPendingInterrupt(state.ref);
            ++result.cases;
            if (lhs != rhs) {
              Note(&result, Describe("virtual interrupt", "selection",
                                     lhs.value_or(~uint64_t{0}), rhs.value_or(~uint64_t{0})));
            }
          }
        }
      }
    }
  }
  result.seconds = Elapsed(start);
  return result;
}

VerifResult Verifier::VerifyEndToEnd(uint64_t iterations) {
  VerifResult result;
  result.task = "end-to-end emulation";
  const auto start = Clock::now();
  Rng rng(seed_ ^ 0xE2E);
  for (uint64_t iter = 0; iter < iterations; ++iter) {
    SyncedState state = MakeRandomState();
    uint64_t gprs[32];
    gprs[0] = 0;
    for (unsigned i = 1; i < 32; ++i) {
      gprs[i] = rng.NextAdversarial();
      state.ref.gpr[i] = gprs[i];
    }
    state.ref.gpr[0] = 0;

    uint32_t raw = 0;
    switch (rng.NextBelow(8)) {
      case 0:
        raw = kMretRaw;
        break;
      case 1:
        raw = kSretRaw;
        break;
      case 2:
        raw = kWfiRaw;
        break;
      case 3:
        raw = kEcallRaw;
        break;
      case 4:
        raw = kEbreakRaw;
        break;
      case 5:
        raw = kSfenceRaw;
        break;
      default: {
        static const unsigned kFunct3[6] = {1, 2, 3, 5, 6, 7};
        const uint16_t csr = csr_list_[rng.NextBelow(csr_list_.size())];
        raw = EncodeCsrOp(kFunct3[rng.NextBelow(6)], csr,
                          static_cast<unsigned>(rng.NextBelow(32)),
                          static_cast<unsigned>(rng.NextBelow(32)));
        break;
      }
    }
    const DecodedInstr instr = Decode(raw);
    state.vctx.EmulatePrivileged(instr, gprs);
    const RefStepResult ref = RefStep(rconfig_, state.ref, instr);
    state.ref = ref.state;
    ++result.cases;
    CompareStates(state.vctx, state.ref, gprs, Disassemble(instr).c_str(), &result);
  }
  result.seconds = Elapsed(start);
  return result;
}

VerifResult Verifier::VerifyPmpFaithfulExecution(uint64_t configs, uint64_t probes_per_config) {
  VerifResult result;
  result.task = "PMP faithful execution";
  const auto start = Clock::now();
  Rng rng(seed_ ^ 0x9A9);

  const uint64_t monitor_base = 0x8000'0000;
  const uint64_t monitor_size = 1 << 20;
  const uint64_t vdev_base = 0x200'0000;
  const uint64_t vdev_size = 0x10000;
  auto in_reserved = [&](uint64_t addr, uint64_t size) {
    return (addr + size > monitor_base && addr < monitor_base + monitor_size) ||
           (addr + size > vdev_base && addr < vdev_base + vdev_size);
  };

  for (uint64_t config_iter = 0; config_iter < configs; ++config_iter) {
    CsrFile vcsr(vconfig_, 0);
    // Random virtual PMP configuration through the WARL surface.
    vcsr.Set(CsrPmpcfg(0), rng.Next());
    for (unsigned i = 0; i < vconfig_.pmp_entries; ++i) {
      // Mix arbitrary addresses with RAM-window addresses so ranges are plausible.
      const uint64_t addr = rng.Chance(1, 2)
                                ? (0x8000'0000 + rng.NextBelow(64ull << 20)) >> 2
                                : rng.NextAdversarial();
      vcsr.Set(CsrPmpaddr(i), addr);
    }

    // The virtual reference bank.
    const PmpBank& vbank = vcsr.pmp();

    VpmpInputs inputs;
    inputs.monitor = {true, monitor_base, monitor_size, false, false, false};
    inputs.vdev = {true, vdev_base, vdev_size, false, false, false};

    PmpBank os_bank(8);
    inputs.firmware_world = false;
    ComputePhysicalPmp(vbank, inputs, &os_bank);

    PmpBank fw_bank(8);
    inputs.firmware_world = true;
    ComputePhysicalPmp(vbank, inputs, &fw_bank);

    PmpBank mprv_bank(8);
    inputs.mprv_emulation = true;
    ComputePhysicalPmp(vbank, inputs, &mprv_bank);

    // Probe addresses: decoded boundaries of every virtual entry plus random points.
    std::vector<uint64_t> probes;
    for (unsigned i = 0; i < vconfig_.pmp_entries; ++i) {
      const uint64_t prev = i == 0 ? 0 : vbank.GetAddr(i - 1);
      const auto range = DecodePmpRange(vbank.GetCfg(i), vbank.GetAddr(i), prev);
      if (range.has_value()) {
        // Probes are clamped to the 2^56-byte physical address space pmpaddr spans.
        const uint64_t max_addr = (uint64_t{1} << 56) - 16;
        probes.push_back(std::min(range->base, max_addr));
        probes.push_back(range->base > 8 ? range->base - 8 : 0);
        probes.push_back(std::min(range->limit - 8, max_addr));
        probes.push_back(std::min(range->limit, max_addr));
      }
    }
    for (uint64_t p = 0; p < probes_per_config; ++p) {
      probes.push_back(rng.Next() & MaskLow(34));
    }
    probes.push_back(monitor_base);
    probes.push_back(monitor_base + monitor_size - 8);
    probes.push_back(vdev_base);

    for (uint64_t addr : probes) {
      for (AccessType type : {AccessType::kLoad, AccessType::kStore, AccessType::kFetch}) {
        const unsigned size = 1u << rng.NextBelow(4);
        ++result.cases;
        // Direct execution: the OS must see exactly the virtual configuration.
        for (PrivMode priv : {PrivMode::kUser, PrivMode::kSupervisor}) {
          const bool phys = os_bank.Check(addr, size, type, priv);
          if (in_reserved(addr, size)) {
            if (phys) {
              Note(&result, Describe("pmp os-world", "reserved region exposed", addr, 0));
            }
            continue;
          }
          const bool virt = vbank.Check(addr, size, type, priv);
          if (phys != virt) {
            Note(&result, Describe("pmp os-world", "admission mismatch", addr,
                                   static_cast<uint64_t>(type)));
          }
        }
        // vM-mode: the firmware must see M-mode semantics of its virtual bank.
        {
          const bool phys = fw_bank.Check(addr, size, type, PrivMode::kUser);
          if (in_reserved(addr, size)) {
            if (phys) {
              Note(&result, Describe("pmp fw-world", "reserved region exposed", addr, 0));
            }
          } else {
            const bool virt = vbank.Check(addr, size, type, PrivMode::kMachine);
            if (phys != virt) {
              Note(&result, Describe("pmp fw-world", "vM semantics mismatch", addr,
                                     static_cast<uint64_t>(type)));
            }
          }
        }
        // MPRV emulation: loads/stores must trap everywhere, fetches must not.
        if (!in_reserved(addr, size)) {
          const bool phys = mprv_bank.Check(addr, size, type, PrivMode::kUser);
          const bool expected = type == AccessType::kFetch;
          if (phys != expected) {
            Note(&result, Describe("pmp mprv", "X-only cover violated", addr,
                                   static_cast<uint64_t>(type)));
          }
        }
      }
    }
  }
  result.seconds = Elapsed(start);
  return result;
}

std::vector<VerifResult> Verifier::RunAll() {
  std::vector<VerifResult> results;
  results.push_back(VerifyMret());
  results.push_back(VerifySret());
  results.push_back(VerifyWfi());
  results.push_back(VerifyDecoder());
  results.push_back(VerifyCsrRead(40));
  results.push_back(VerifyCsrWrite(400));
  results.push_back(VerifyVirtualInterrupt());
  results.push_back(VerifyPmpFaithfulExecution(400, 64));
  results.push_back(VerifyEndToEnd(200'000));
  return results;
}

}  // namespace vfm
