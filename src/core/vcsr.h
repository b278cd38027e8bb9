// The monitor's virtual CSR file: the shadow copy of the machine-level and
// supervisor-level CSRs that the deprivileged firmware believes it owns (paper §4.1:
// "MIRALIS maintains a shadow copy of the CSRs on which the instruction emulator
// operates"). This is the monitor's own implementation of the CSR WARL semantics —
// the component verified against the reference model (src/refmodel) by the
// faithful-emulation checks in src/verif. Its virtual PMP is a PmpBank, the model the
// physical harts use; the reference model keeps its own PMP rules.

#ifndef SRC_CORE_VCSR_H_
#define SRC_CORE_VCSR_H_

#include <cstdint>
#include <functional>

#include "src/isa/csr.h"
#include "src/isa/priv.h"
#include "src/pmp/pmp.h"

namespace vfm {

class StateReader;
class StateWriter;

// Configuration of the virtual hart the firmware sees. The virtual platform mirrors
// the physical one, minus the PMP entries the monitor reserves for itself (Figure 5).
struct VhartConfig {
  unsigned pmp_entries = 3;
  unsigned hart_index = 0;  // reported through the virtual mhartid
  bool has_time_csr = false;
  bool has_sstc = false;
  bool has_custom_csrs = false;
  bool has_h_ext = false;  // shadow storage for the hypervisor bank (ACE policy)
};

class VCsrFile {
 public:
  explicit VCsrFile(const VhartConfig& config);

  const VhartConfig& config() const { return config_; }

  // Architectural access: Get composes read views, Set applies WARL legalization.
  uint64_t Get(uint16_t addr) const;
  void Set(uint16_t addr, uint64_t value);

  // Instruction-level access at virtual privilege `priv`; false = the virtual hart
  // must raise a (virtual) illegal-instruction exception.
  bool Read(uint16_t addr, PrivMode priv, uint64_t* out) const;
  bool Write(uint16_t addr, PrivMode priv, uint64_t value);

  // True if this CSR exists on the virtual platform.
  bool Exists(uint16_t addr) const;

  // The virtual PMP: a PmpBank (src/pmp) of the virtual entry count, so the WARL and
  // lock rules are the physical bank's. The physical-PMP multiplexer (src/core/vpmp)
  // packs it into the host bank, and the monitor checks emulated MPRV accesses
  // against it.
  const PmpBank& pmp() const { return pmp_; }
  uint8_t pmpcfg_byte(unsigned i) const { return pmp_.GetCfg(i).ToByte(); }
  uint64_t pmpaddr(unsigned i) const { return pmp_.GetAddr(i); }

  // Time source for the virtual time CSR and Sstc comparator.
  void set_time_source(std::function<uint64_t()> source) { time_source_ = std::move(source); }
  uint64_t ReadTime() const { return time_source_ ? time_source_() : 0; }

  // Direct named accessors used by the monitor's dispatch paths.
  uint64_t mstatus() const { return mstatus_; }
  uint64_t mie() const { return mie_; }
  uint64_t mip() const { return mip_; }
  void set_mip(uint64_t value) { mip_ = value; }
  uint64_t mideleg() const { return mideleg_; }
  uint64_t medeleg() const { return medeleg_; }
  uint64_t mtvec() const { return mtvec_; }
  uint64_t mepc() const { return mepc_; }

  // The effective virtual mip including injected interrupt lines (virtual CLINT).
  uint64_t EffectiveMip() const;
  void SetVirtualInterruptLine(InterruptCause cause, bool level);

  // Uniform state API (DESIGN.md §2h): every shadow CSR in fixed field order. The
  // time source is wiring — the owning monitor re-installs it.
  void SaveState(StateWriter& writer) const;
  bool LoadState(StateReader& reader);

 private:
  uint64_t LegalizeVStatus(uint64_t old_value, uint64_t new_value) const;

  VhartConfig config_;
  std::function<uint64_t()> time_source_;

  uint64_t mstatus_;
  uint64_t medeleg_ = 0;
  uint64_t mideleg_ = 0;
  uint64_t mie_ = 0;
  uint64_t mip_ = 0;
  uint64_t mip_lines_ = 0;  // virtual MSIP/MTIP/MEIP driven by the virtual CLINT
  uint64_t mtvec_ = 0;
  uint64_t mcounteren_ = 0;
  uint64_t menvcfg_ = 0;
  uint64_t mcountinhibit_ = 0;
  uint64_t mscratch_ = 0;
  uint64_t mepc_ = 0;
  uint64_t mcause_ = 0;
  uint64_t mtval_ = 0;
  uint64_t mseccfg_ = 0;
  uint64_t mcycle_ = 0;
  uint64_t minstret_ = 0;

  uint64_t stvec_ = 0;
  uint64_t scounteren_ = 0;
  uint64_t senvcfg_ = 0;
  uint64_t sscratch_ = 0;
  uint64_t sepc_ = 0;
  uint64_t scause_ = 0;
  uint64_t stval_ = 0;
  uint64_t satp_ = 0;
  uint64_t stimecmp_ = ~uint64_t{0};

  PmpBank pmp_;
  uint64_t custom_[4] = {};

  // Hypervisor-bank shadows (plain storage; used only for world-switch save/restore
  // when the ACE policy runs on an H-capable platform).
  uint64_t hshadow_[16] = {};
};

}  // namespace vfm

#endif  // SRC_CORE_VCSR_H_
