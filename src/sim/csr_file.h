// Architectural CSR state of a simulated hart, with WARL legalization and
// privilege-checked instruction-level access, and the privileged transitions that
// move it: trap entry, interrupt selection, the CSR instruction, mret, sret and the
// wfi/sfence.vma/ecall gates. This is the "hardware" side of the paper's Figure 6.
// The monitor's shadow CSRs (src/core/vcpu) are a CsrFile too, built for the virtual
// hart, and its emulator runs the same transitions with V fixed at 0, so the harts
// and the monitor's emulator run one CSR model and one set of transitions; the
// reference model re-specifies both independently (src/refmodel).

#ifndef SRC_SIM_CSR_FILE_H_
#define SRC_SIM_CSR_FILE_H_

#include <cstdint>
#include <functional>
#include <optional>

#include "src/common/bits.h"
#include "src/common/state.h"
#include "src/isa/csr.h"
#include "src/isa/instr.h"
#include "src/isa/priv.h"
#include "src/pmp/pmp.h"
#include "src/sim/config.h"

namespace vfm {

class CsrFile : public ListedState<CsrFile> {
 public:
  explicit CsrFile(const HartIsaConfig& config, unsigned hart_index);

  const HartIsaConfig& config() const { return config_; }

  // Whether the CSR exists on this hart's configuration. Accesses to an absent CSR
  // raise illegal instruction.
  bool CsrExists(uint16_t addr) const;

  // -- Instruction-level access (privilege + existence + WARL checks). -------------
  // Returns false for accesses that must raise an illegal-instruction exception.
  // `priv` is the current privilege; `virt` the current virtualization mode (V bit).
  bool ReadCsr(uint16_t addr, PrivMode priv, bool virt, uint64_t* out) const;
  bool WriteCsr(uint16_t addr, PrivMode priv, bool virt, uint64_t value);

  // -- Architectural access without privilege checks (trap logic, monitor HAL). ----
  // Reads compose views (sstatus, sip, ...); writes apply WARL legalization.
  uint64_t Get(uint16_t addr) const;
  void Set(uint16_t addr, uint64_t value);

  // -- Direct named state used by the execution engine. ---------------------------
  uint64_t mstatus() const { return mstatus_; }
  void set_mstatus(uint64_t value) { mstatus_ = LegalizeMstatus(mstatus_, value); }
  uint64_t misa() const { return misa_; }
  uint64_t medeleg() const { return medeleg_; }
  uint64_t mideleg() const { return mideleg_; }
  uint64_t hedeleg() const { return hedeleg_; }
  uint64_t hideleg() const { return hideleg_; }
  uint64_t mie() const { return mie_; }
  uint64_t mtvec() const { return mtvec_; }
  uint64_t stvec() const { return stvec_; }
  uint64_t vstvec() const { return vstvec_; }
  uint64_t mepc() const { return mepc_; }
  uint64_t sepc() const { return sepc_; }
  uint64_t satp() const { return satp_; }
  uint64_t vsatp() const { return vsatp_; }
  uint64_t hstatus() const { return hstatus_; }
  uint64_t hgatp() const { return hgatp_; }
  uint64_t stimecmp() const { return stimecmp_; }
  uint64_t menvcfg() const { return menvcfg_; }

  uint64_t mcycle() const { return mcycle_; }
  void AddCycles(uint64_t cycles) { mcycle_ += cycles; }
  uint64_t minstret() const { return minstret_; }
  void AddInstret(uint64_t n) { minstret_ += n; }

  // Effective mip: software-writable bits OR hardware interrupt lines OR the Sstc
  // comparator. The machine refreshes the lines each step.
  uint64_t EffectiveMip() const;
  void SetInterruptLine(InterruptCause cause, bool level);
  // Current level of one hardware line, letting the machine skip redundant
  // SetInterruptLine calls during its per-round refresh.
  bool InterruptLineSet(InterruptCause cause) const {
    return (mip_lines_ & InterruptMask(cause)) != 0;
  }
  // Software view used by mip writes (the machine-owned lines are read-only there).
  uint64_t mip_sw() const { return mip_; }
  void set_mip_sw(uint64_t value) {
    uint64_t writable = kSupervisorInterrupts;
    if (config_.has_h_ext) {
      writable |= kVsInterrupts;
    }
    mip_ = value & writable;
  }

  PmpBank& pmp() { return pmp_; }
  const PmpBank& pmp() const { return pmp_; }

  // Time source for the `time` CSR and the Sstc comparator (wired to the CLINT).
  void set_time_source(std::function<uint64_t()> source) { time_source_ = std::move(source); }
  uint64_t ReadTime() const { return time_source_ ? time_source_() : 0; }

  // Uniform state API (DESIGN.md §2h): every architectural CSR plus the nested PMP
  // bank, in fixed field order. The time source is wiring, not state — the owning
  // machine re-installs it. Values are stored raw (they were legalized when
  // written), so a load reproduces the exact architectural state bit for bit.
  template <typename Io>
  void VisitState(Io& io) {
    io.BeginSection(StateTag("CSRF"), 1);
    io.U64(misa_);
    io.U64(mstatus_);
    io.Require(IsPrivModeEncoding(ExtractBits(mstatus_, MstatusBits::kMppHi, MstatusBits::kMppLo)),
               "mstatus.MPP holds the reserved privilege 2");
    io.U64(medeleg_);
    io.U64(mideleg_);
    io.U64(mie_);
    io.U64(mip_);
    io.U64(mip_lines_);
    io.U64(mtvec_);
    io.U64(mcounteren_);
    io.U64(menvcfg_);
    io.U64(mcountinhibit_);
    io.U64(mscratch_);
    io.U64(mepc_);
    io.U64(mcause_);
    io.U64(mtval_);
    io.U64(mtval2_);
    io.U64(mtinst_);
    io.U64(mseccfg_);
    io.U64(mcycle_);
    io.U64(minstret_);
    io.U64(stvec_);
    io.U64(scounteren_);
    io.U64(senvcfg_);
    io.U64(sscratch_);
    io.U64(sepc_);
    io.U64(scause_);
    io.U64(stval_);
    io.U64(satp_);
    io.U64(stimecmp_);
    io.U64(hstatus_);
    io.U64(hedeleg_);
    io.U64(hideleg_);
    io.U64(hie_);
    io.U64(htimedelta_);
    io.U64(hcounteren_);
    io.U64(henvcfg_);
    io.U64(htval_);
    io.U64(hvip_);
    io.U64(htinst_);
    io.U64(hgatp_);
    io.U64(vsstatus_);
    io.U64(vstvec_);
    io.U64(vsscratch_);
    io.U64(vsepc_);
    io.U64(vscause_);
    io.U64(vstval_);
    io.U64(vsatp_);
    for (uint64_t& custom : custom_) {
      io.U64(custom);
    }
    pmp_.VisitState(io);
    io.EndSection();
  }

  // Legalization helpers, exposed for tests.
  uint64_t LegalizeMstatus(uint64_t old_value, uint64_t new_value) const;
  static uint64_t LegalizeTvec(uint64_t old_value, uint64_t new_value);
  uint64_t LegalizeEpc(uint64_t value) const { return value & ~uint64_t{3}; }

  static constexpr uint64_t kMipSwWritable =
      InterruptMask(InterruptCause::kSupervisorSoftware) |
      InterruptMask(InterruptCause::kSupervisorTimer) |
      InterruptMask(InterruptCause::kSupervisorExternal) |
      InterruptMask(InterruptCause::kVirtualSupervisorSoftware) |
      InterruptMask(InterruptCause::kVirtualSupervisorTimer) |
      InterruptMask(InterruptCause::kVirtualSupervisorExternal);

 private:
  bool CounterReadable(uint16_t addr, PrivMode priv) const;

  HartIsaConfig config_;
  unsigned hart_index_;
  std::function<uint64_t()> time_source_;

  // Machine-level state.
  uint64_t misa_ = 0;
  uint64_t mstatus_ = 0;
  uint64_t medeleg_ = 0;
  uint64_t mideleg_ = 0;
  uint64_t mie_ = 0;
  uint64_t mip_ = 0;        // software-writable bits
  uint64_t mip_lines_ = 0;  // hardware lines (MSIP/MTIP/MEIP/SEIP)
  uint64_t mtvec_ = 0;
  uint64_t mcounteren_ = 0;
  uint64_t menvcfg_ = 0;
  uint64_t mcountinhibit_ = 0;
  uint64_t mscratch_ = 0;
  uint64_t mepc_ = 0;
  uint64_t mcause_ = 0;
  uint64_t mtval_ = 0;
  uint64_t mtval2_ = 0;
  uint64_t mtinst_ = 0;
  uint64_t mseccfg_ = 0;
  uint64_t mcycle_ = 0;
  uint64_t minstret_ = 0;
  uint64_t custom_[4] = {};

  // Supervisor-level state.
  uint64_t stvec_ = 0;
  uint64_t scounteren_ = 0;
  uint64_t senvcfg_ = 0;
  uint64_t sscratch_ = 0;
  uint64_t sepc_ = 0;
  uint64_t scause_ = 0;
  uint64_t stval_ = 0;
  uint64_t satp_ = 0;
  uint64_t stimecmp_ = ~uint64_t{0};

  // Hypervisor + virtual-supervisor state (minimal subset).
  uint64_t hstatus_ = 0;
  uint64_t hedeleg_ = 0;
  uint64_t hideleg_ = 0;
  uint64_t hie_ = 0;
  uint64_t htimedelta_ = 0;
  uint64_t hcounteren_ = 0;
  uint64_t henvcfg_ = 0;
  uint64_t htval_ = 0;
  uint64_t hvip_ = 0;
  uint64_t htinst_ = 0;
  uint64_t hgatp_ = 0;
  uint64_t vsstatus_ = 0;
  uint64_t vstvec_ = 0;
  uint64_t vsscratch_ = 0;
  uint64_t vsepc_ = 0;
  uint64_t vscause_ = 0;
  uint64_t vstval_ = 0;
  uint64_t vsatp_ = 0;

  PmpBank pmp_;
};

// -- Privileged transitions (DESIGN.md §5). -----------------------------------------
// Each is written once, over a CsrFile plus the pc, privilege and V bit a trap moves.
// The harts pass their own V bit; the monitor's vCPU passes V = 0.

// The pc, privilege and virtualization mode that a trap or an xRET moves.
struct PrivState {
  uint64_t pc = 0;
  PrivMode priv = PrivMode::kMachine;
  bool virt = false;
};

// Trap entry: routes `cause` to M, HS/S or VS (medeleg/mideleg, then
// hedeleg/hideleg from V = 1), writes that level's cause/epc/tval, pushes its status
// stack (MPV, or hstatus.SPV/SPVP, with the H extension) and vectors state->pc.
// Returns the privilege the trap landed in; state->virt tells VS from HS.
PrivMode EnterTrap(CsrFile& csrs, PrivState* state, uint64_t cause, uint64_t tval);

// Interrupt selection: the highest-priority pending and enabled interrupt that may be
// taken at (priv, virt), or nullopt. Its stages run in order: M-level (not
// delegated), S-level (delegated to HS/S, not to VS), VS-level (only while V = 1).
std::optional<uint64_t> SelectInterrupt(const CsrFile& csrs, PrivMode priv, bool virt);
// The M-level stage alone.
std::optional<uint64_t> SelectMachineInterrupt(const CsrFile& csrs, PrivMode priv);

// The Zicsr instruction `instr`, with `rs1_value` in rs1: its legality check and its
// read-modify-write. Returns false, having written nothing, when it raises illegal
// instruction; otherwise *rd_value is the old value, for rd.
bool ExecuteCsrInstr(CsrFile& csrs, const DecodedInstr& instr, uint64_t rs1_value,
                     PrivMode priv, bool virt, uint64_t* rd_value);

// mret and sret at *state. Each returns false, having changed nothing, when it is
// illegal there; otherwise it pops the status stack and moves *state to the return
// pc, privilege and V bit.
bool Mret(CsrFile& csrs, PrivState* state);
bool Sret(CsrFile& csrs, PrivState* state);

// Whether wfi and sfence.vma may execute at (priv, virt); ecall's cause there.
bool WfiPermitted(const CsrFile& csrs, PrivMode priv, bool virt);
bool SfenceVmaPermitted(const CsrFile& csrs, PrivMode priv, bool virt);
uint64_t EcallCause(PrivMode priv, bool virt);

}  // namespace vfm

#endif  // SRC_SIM_CSR_FILE_H_
