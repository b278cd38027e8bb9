// Physical-PMP multiplexing (paper §4.2, Figure 5). The monitor owns the physical PMP
// bank and packs into it, in priority order:
//   entry 0              — the monitor's own memory        (no access)
//   entry 1              — the virtual-device window (CLINT) (no access → traps emulate)
//   entry 2              — the policy slot (enclave / CVM / sandbox regions)
//   entry 3              — ToR-base helper: address 0, OFF, so a virtual PMP 0 using
//                          TOR addressing starts at 0 as architected
//   entries 4 .. N-2     — the virtual PMP entries, at lower priority
//   entry N-1            — the "vM-mode sees all memory" default (RWX while the
//                          firmware runs; disabled while the OS runs; X-only while
//                          emulating mstatus.MPRV)
//
// ComputePhysicalPmp is the `cfg` function of the faithful-execution criterion
// (Definition 2): src/verif checks that the physical bank it produces admits exactly
// the accesses the virtual configuration would, and never exposes the monitor.

#ifndef SRC_CORE_VPMP_H_
#define SRC_CORE_VPMP_H_

#include <cstdint>
#include <optional>

#include "src/pmp/pmp.h"

namespace vfm {

// A power-of-two, size-aligned protected region with its permissions.
struct PmpRegionRequest {
  bool active = false;
  uint64_t base = 0;
  uint64_t size = 0;  // power of two, >= 8, base-aligned
  bool r = false;
  bool w = false;
  bool x = false;
};

// Encodes a NAPOT pmpaddr value for an aligned power-of-two region.
uint64_t NapotAddr(uint64_t base, uint64_t size);

struct VpmpLayout {
  static constexpr unsigned kMonitorEntry = 0;
  static constexpr unsigned kVdevEntry = 1;
  static constexpr unsigned kPolicyEntry = 2;
  static constexpr unsigned kTorBaseEntry = 3;
  static constexpr unsigned kVpmpFirst = 4;
  // The last physical entry is the all-memory default; the number of virtual entries
  // is therefore phys_entries - 5.
  static unsigned VirtualEntries(unsigned phys_entries) { return phys_entries - 5; }
};

struct VpmpInputs {
  PmpRegionRequest monitor;             // always active in practice
  PmpRegionRequest vdev;                // the emulated CLINT window
  PmpRegionRequest policy;              // the policy slot (may be inactive)
  bool firmware_world = false;          // vM-mode is executing
  bool mprv_emulation = false;          // firmware has mstatus.MPRV set (X-only trick)
  bool suppress_vpmp = false;           // enclave/CVM execution: only policy + monitor
  // If set, replaces the all-memory RWX default while the firmware runs (the sandbox
  // policy's lockdown region, §5.2).
  std::optional<PmpRegionRequest> firmware_default_override;
};

// Fills `phys` (which has phys_entries entries) from the virtual PMP bank `vpmp`
// (VirtualEntries(phys_entries) entries) and the monitor/policy regions, as one
// PmpBank::Install: contents equal to a recent configuration get its epoch back.
void ComputePhysicalPmp(const PmpBank& vpmp, const VpmpInputs& inputs, PmpBank* phys);

}  // namespace vfm

#endif  // SRC_CORE_VPMP_H_
