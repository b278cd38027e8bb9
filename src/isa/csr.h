// CSR address map and per-CSR metadata: addresses, names, and the privilege and
// read-only classification encoded in an address. Which CSRs exist on a given hart is
// CsrFile::CsrExists's rule (src/sim), which the reference model states again on its
// own (RefCsrExists).

#ifndef SRC_ISA_CSR_H_
#define SRC_ISA_CSR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/isa/priv.h"

namespace vfm {

// Well-known CSR addresses. PMP and HPM registers are ranges; helpers below construct
// them by index.
enum Csr : uint16_t {
  // Unprivileged counters.
  kCsrCycle = 0xC00,
  kCsrTime = 0xC01,
  kCsrInstret = 0xC02,
  kCsrHpmcounter3 = 0xC03,  // ..0xC1F

  // Supervisor.
  kCsrSstatus = 0x100,
  kCsrSie = 0x104,
  kCsrStvec = 0x105,
  kCsrScounteren = 0x106,
  kCsrSenvcfg = 0x10A,
  kCsrSscratch = 0x140,
  kCsrSepc = 0x141,
  kCsrScause = 0x142,
  kCsrStval = 0x143,
  kCsrSip = 0x144,
  kCsrStimecmp = 0x14D,
  kCsrSatp = 0x180,

  // Hypervisor (subset).
  kCsrHstatus = 0x600,
  kCsrHedeleg = 0x602,
  kCsrHideleg = 0x603,
  kCsrHie = 0x604,
  kCsrHtimedelta = 0x605,
  kCsrHcounteren = 0x606,
  kCsrHenvcfg = 0x60A,
  kCsrHtval = 0x643,
  kCsrHip = 0x644,
  kCsrHvip = 0x645,
  kCsrHtinst = 0x64A,
  kCsrHgatp = 0x680,

  // Virtual supervisor.
  kCsrVsstatus = 0x200,
  kCsrVsie = 0x204,
  kCsrVstvec = 0x205,
  kCsrVsscratch = 0x240,
  kCsrVsepc = 0x241,
  kCsrVscause = 0x242,
  kCsrVstval = 0x243,
  kCsrVsip = 0x244,
  kCsrVsatp = 0x280,

  // Machine information (read-only).
  kCsrMvendorid = 0xF11,
  kCsrMarchid = 0xF12,
  kCsrMimpid = 0xF13,
  kCsrMhartid = 0xF14,
  kCsrMconfigptr = 0xF15,

  // Machine trap setup / handling.
  kCsrMstatus = 0x300,
  kCsrMisa = 0x301,
  kCsrMedeleg = 0x302,
  kCsrMideleg = 0x303,
  kCsrMie = 0x304,
  kCsrMtvec = 0x305,
  kCsrMcounteren = 0x306,
  kCsrMenvcfg = 0x30A,
  kCsrMcountinhibit = 0x320,
  kCsrMhpmevent3 = 0x323,  // ..0x33F
  kCsrMscratch = 0x340,
  kCsrMepc = 0x341,
  kCsrMcause = 0x342,
  kCsrMtval = 0x343,
  kCsrMip = 0x344,
  kCsrMtinst = 0x34A,
  kCsrMtval2 = 0x34B,

  // Machine memory protection.
  kCsrPmpcfg0 = 0x3A0,   // even addresses ..0x3AE on RV64
  kCsrPmpaddr0 = 0x3B0,  // ..0x3EF
  kCsrMseccfg = 0x747,

  // Machine counters.
  kCsrMcycle = 0xB00,
  kCsrMinstret = 0xB02,
  kCsrMhpmcounter3 = 0xB03,  // ..0xB1F

  // Platform-custom M-mode CSRs (the P550 profile exposes four documented custom CSRs
  // for speculation control and error reporting; see paper §8.2).
  kCsrCustom0 = 0x7C0,
  kCsrCustom1 = 0x7C1,
  kCsrCustom2 = 0x7C2,
  kCsrCustom3 = 0x7C3,
};

inline constexpr uint16_t CsrPmpcfg(unsigned i) {
  // RV64: only even pmpcfg registers exist; pmpcfg2i covers pmpaddr[8i..8i+7].
  return static_cast<uint16_t>(kCsrPmpcfg0 + 2 * i);
}
inline constexpr uint16_t CsrPmpaddr(unsigned i) {
  return static_cast<uint16_t>(kCsrPmpaddr0 + i);
}
inline constexpr uint16_t CsrMhpmcounter(unsigned i) {  // i in [3, 31]
  return static_cast<uint16_t>(kCsrMcycle + i);
}
inline constexpr uint16_t CsrMhpmevent(unsigned i) {  // i in [3, 31]
  return static_cast<uint16_t>(0x320 + i);
}
inline constexpr uint16_t CsrHpmcounter(unsigned i) {  // i in [3, 31]
  return static_cast<uint16_t>(0xC00 + i);
}

// CSR address classification, from the privileged spec: bits [11:10] encode
// read-only-ness (3 = read-only), bits [9:8] the lowest privilege that may access.
inline constexpr bool CsrIsReadOnly(uint16_t addr) { return ((addr >> 10) & 3) == 3; }
inline constexpr PrivMode CsrMinPriv(uint16_t addr) {
  const unsigned priv = (addr >> 8) & 3;
  // 2 encodes hypervisor CSRs, accessible from HS-mode; we fold them into supervisor.
  if (priv == 2) {
    return PrivMode::kSupervisor;
  }
  return static_cast<PrivMode>(priv);
}

// Static description of a CSR the platform implements.
struct CsrInfo {
  uint16_t addr;
  const char* name;
};

// Returns the descriptor for `addr`, or nullptr if this library does not know the CSR.
const CsrInfo* LookupCsr(uint16_t addr);

// Returns the canonical name for a CSR address ("mstatus", "pmpaddr7", ...). Unknown
// addresses render as "csr_0x###".
std::string CsrName(uint16_t addr);

// The full list of CSRs a fully-featured platform in this library implements.
const std::vector<CsrInfo>& AllKnownCsrs();

}  // namespace vfm

#endif  // SRC_ISA_CSR_H_
