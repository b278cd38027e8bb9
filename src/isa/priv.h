// RISC-V privileged-architecture definitions shared by the simulator, the monitor, and
// the reference model: privilege modes, trap causes, interrupt bits, and the bit layout
// of mstatus/sstatus and related CSRs. References are to the RISC-V Privileged
// Architecture specification (the paper's [96]).

#ifndef SRC_ISA_PRIV_H_
#define SRC_ISA_PRIV_H_

#include <cstdint>

#include "src/common/bits.h"

namespace vfm {

// Privilege modes, encoded as in mstatus.MPP.
enum class PrivMode : uint8_t {
  kUser = 0,
  kSupervisor = 1,
  kMachine = 3,
};

// Whether `encoding` names a privilege mode: U, S or M (2 is reserved).
constexpr bool IsPrivModeEncoding(uint64_t encoding) {
  return encoding == 0 || encoding == 1 || encoding == 3;
}

inline const char* PrivModeName(PrivMode mode) {
  switch (mode) {
    case PrivMode::kUser:
      return "U";
    case PrivMode::kSupervisor:
      return "S";
    case PrivMode::kMachine:
      return "M";
  }
  return "?";
}

// Synchronous exception causes (mcause with interrupt bit clear).
enum class ExceptionCause : uint64_t {
  kInstrAddrMisaligned = 0,
  kInstrAccessFault = 1,
  kIllegalInstr = 2,
  kBreakpoint = 3,
  kLoadAddrMisaligned = 4,
  kLoadAccessFault = 5,
  kStoreAddrMisaligned = 6,
  kStoreAccessFault = 7,
  kEcallFromU = 8,
  kEcallFromS = 9,
  kEcallFromVs = 10,
  kEcallFromM = 11,
  kInstrPageFault = 12,
  kLoadPageFault = 13,
  kStorePageFault = 15,
  kInstrGuestPageFault = 20,
  kLoadGuestPageFault = 21,
  kVirtualInstr = 22,
  kStoreGuestPageFault = 23,
};

// Interrupt numbers (bit positions in mip/mie, and mcause values with the interrupt
// bit set).
enum class InterruptCause : uint64_t {
  kSupervisorSoftware = 1,
  kVirtualSupervisorSoftware = 2,
  kMachineSoftware = 3,
  kSupervisorTimer = 5,
  kVirtualSupervisorTimer = 6,
  kMachineTimer = 7,
  kSupervisorExternal = 9,
  kVirtualSupervisorExternal = 10,
  kMachineExternal = 11,
  kSupervisorGuestExternal = 12,
};

constexpr uint64_t kInterruptBit = uint64_t{1} << 63;

constexpr uint64_t CauseValue(ExceptionCause cause) { return static_cast<uint64_t>(cause); }
constexpr uint64_t CauseValue(InterruptCause cause) {
  return kInterruptBit | static_cast<uint64_t>(cause);
}

constexpr uint64_t InterruptMask(InterruptCause cause) {
  return uint64_t{1} << static_cast<uint64_t>(cause);
}

// Bit masks for mip/mie groups.
constexpr uint64_t kMachineInterrupts = InterruptMask(InterruptCause::kMachineSoftware) |
                                        InterruptMask(InterruptCause::kMachineTimer) |
                                        InterruptMask(InterruptCause::kMachineExternal);
constexpr uint64_t kSupervisorInterrupts = InterruptMask(InterruptCause::kSupervisorSoftware) |
                                           InterruptMask(InterruptCause::kSupervisorTimer) |
                                           InterruptMask(InterruptCause::kSupervisorExternal);
constexpr uint64_t kVsInterrupts = InterruptMask(InterruptCause::kVirtualSupervisorSoftware) |
                                   InterruptMask(InterruptCause::kVirtualSupervisorTimer) |
                                   InterruptMask(InterruptCause::kVirtualSupervisorExternal);

// mstatus bit positions (RV64).
struct MstatusBits {
  static constexpr unsigned kSie = 1;
  static constexpr unsigned kMie = 3;
  static constexpr unsigned kSpie = 5;
  static constexpr unsigned kUbe = 6;
  static constexpr unsigned kMpie = 7;
  static constexpr unsigned kSpp = 8;
  static constexpr unsigned kVsLo = 9;   // VS field [10:9]
  static constexpr unsigned kVsHi = 10;
  static constexpr unsigned kMppLo = 11;  // MPP field [12:11]
  static constexpr unsigned kMppHi = 12;
  static constexpr unsigned kFsLo = 13;  // FS field [14:13]
  static constexpr unsigned kFsHi = 14;
  static constexpr unsigned kXsLo = 15;  // XS field [16:15]
  static constexpr unsigned kXsHi = 16;
  static constexpr unsigned kMprv = 17;
  static constexpr unsigned kSum = 18;
  static constexpr unsigned kMxr = 19;
  static constexpr unsigned kTvm = 20;
  static constexpr unsigned kTw = 21;
  static constexpr unsigned kTsr = 22;
  static constexpr unsigned kUxlLo = 32;  // UXL field [33:32]
  static constexpr unsigned kUxlHi = 33;
  static constexpr unsigned kSxlLo = 34;  // SXL field [35:34]
  static constexpr unsigned kSxlHi = 35;
  static constexpr unsigned kSbe = 36;
  static constexpr unsigned kMbe = 37;
  static constexpr unsigned kGva = 38;
  static constexpr unsigned kMpv = 39;
  static constexpr unsigned kSd = 63;
};

// The sstatus view exposes this subset of mstatus (RV64, no F/V state beyond FS).
constexpr uint64_t kSstatusMask =
    (uint64_t{1} << MstatusBits::kSie) | (uint64_t{1} << MstatusBits::kSpie) |
    (uint64_t{1} << MstatusBits::kUbe) | (uint64_t{1} << MstatusBits::kSpp) |
    MaskRange(MstatusBits::kVsHi, MstatusBits::kVsLo) |
    MaskRange(MstatusBits::kFsHi, MstatusBits::kFsLo) |
    MaskRange(MstatusBits::kXsHi, MstatusBits::kXsLo) | (uint64_t{1} << MstatusBits::kSum) |
    (uint64_t{1} << MstatusBits::kMxr) | MaskRange(MstatusBits::kUxlHi, MstatusBits::kUxlLo) |
    (uint64_t{1} << MstatusBits::kSd);

// misa extension bits.
constexpr uint64_t MisaBit(char ext) { return uint64_t{1} << (ext - 'A'); }
constexpr uint64_t kMisaMxl64 = uint64_t{2} << 62;

// satp (RV64): MODE [63:60], ASID [59:44], PPN [43:0].
struct SatpBits {
  static constexpr uint64_t kModeBare = 0;
  static constexpr uint64_t kModeSv39 = 8;
  static constexpr uint64_t kModeSv48 = 9;
  static constexpr unsigned kModeLo = 60;
  static constexpr unsigned kModeHi = 63;
  static constexpr unsigned kAsidLo = 44;
  static constexpr unsigned kAsidHi = 59;
  static constexpr unsigned kPpnLo = 0;
  static constexpr unsigned kPpnHi = 43;
};

// hstatus bit positions (subset we model).
struct HstatusBits {
  static constexpr unsigned kGva = 6;
  static constexpr unsigned kSpv = 7;   // supervisor previous virtualization mode
  static constexpr unsigned kSpvp = 8;  // supervisor previous virtual privilege
  static constexpr unsigned kHu = 9;
  static constexpr unsigned kVtvm = 20;
  static constexpr unsigned kVtw = 21;
  static constexpr unsigned kVtsr = 22;
  static constexpr unsigned kVsxlLo = 32;
  static constexpr unsigned kVsxlHi = 33;
};

// mtvec/stvec: MODE [1:0] (0 = direct, 1 = vectored), BASE [63:2].
struct TvecBits {
  static constexpr uint64_t kModeDirect = 0;
  static constexpr uint64_t kModeVectored = 1;
};

inline uint64_t TvecBase(uint64_t tvec) { return tvec & ~uint64_t{3}; }
inline uint64_t TvecMode(uint64_t tvec) { return tvec & 3; }

// Computes the trap-handler PC for a given tvec and cause.
inline uint64_t TrapTargetPc(uint64_t tvec, uint64_t cause) {
  if (TvecMode(tvec) == TvecBits::kModeVectored && (cause & kInterruptBit) != 0) {
    return TvecBase(tvec) + 4 * (cause & ~kInterruptBit);
  }
  return TvecBase(tvec);
}

}  // namespace vfm

#endif  // SRC_ISA_PRIV_H_
