#include "src/core/vpmp.h"

#include "src/common/bits.h"
#include "src/common/check.h"

namespace vfm {

uint64_t NapotAddr(uint64_t base, uint64_t size) {
  VFM_CHECK_MSG(IsPowerOfTwo(size) && size >= 8, "NAPOT size must be a power of two >= 8");
  VFM_CHECK_MSG(IsAligned(base, size), "NAPOT base must be size-aligned");
  return (base >> 2) | ((size >> 3) - 1);
}

namespace {

// Writes an active region; an inactive one leaves the entry OFF at address 0.
void InstallRegion(PmpBank::Contents* next, unsigned entry, const PmpRegionRequest& request) {
  if (!request.active) {
    return;
  }
  PmpCfg cfg;
  cfg.a = PmpAddrMode::kNapot;
  cfg.r = request.r;
  cfg.w = request.w;
  cfg.x = request.x;
  next->cfg[entry] = cfg.ToByte();
  next->addr[entry] = NapotAddr(request.base, request.size);
}

}  // namespace

void ComputePhysicalPmp(const PmpBank& vpmp, const VpmpInputs& inputs, PmpBank* phys) {
  const unsigned phys_entries = phys->entry_count();
  VFM_CHECK_MSG(phys_entries >= 6, "at least 6 physical PMP entries are required");
  const unsigned virt_entries = VpmpLayout::VirtualEntries(phys_entries);
  VFM_CHECK(virt_entries == vpmp.entry_count());
  const unsigned all_mem_entry = phys_entries - 1;
  // Staged from empty and installed at once, so the bank's contents are a function of
  // the inputs alone: an entry written nowhere below is OFF at address 0.
  PmpBank::Contents next;

  // Monitor self-protection and the virtual-device window. These are installed with
  // no permissions: any S/U access (the OS or the deprivileged firmware) traps to the
  // monitor, which emulates virtual devices and reports violations.
  InstallRegion(&next, VpmpLayout::kMonitorEntry, inputs.monitor);
  InstallRegion(&next, VpmpLayout::kVdevEntry, inputs.vdev);
  InstallRegion(&next, VpmpLayout::kPolicyEntry, inputs.policy);

  // The ToR-base helper stays OFF at address 0. A virtual PMP 0 in TOR mode must treat
  // its base as address 0; hosting it at a physical index > 0 would otherwise pick up
  // the preceding entry's address (§4.2).

  // Virtual PMP entries, at lower priority than everything the monitor reserves.
  // During MPRV emulation they are withheld: a permissive virtual entry would
  // otherwise shadow the execute-only cover and let firmware loads bypass the
  // page-table emulation path (a bug class the faithful-execution check catches).
  // They are also withheld while a firmware-default override (sandbox lockdown) is in
  // force in vM-mode: unlocked virtual entries are installed with full permissions to
  // mimic vM semantics, which would let a malicious firmware grant itself access above
  // the lockdown region through its own PMP configuration.
  const bool lockdown = inputs.firmware_world && inputs.firmware_default_override.has_value();
  for (unsigned i = 0; i < virt_entries; ++i) {
    const unsigned entry = VpmpLayout::kVpmpFirst + i;
    if (inputs.suppress_vpmp || inputs.mprv_emulation || lockdown) {
      continue;
    }
    PmpCfg cfg = vpmp.GetCfg(i);
    if (inputs.firmware_world && !cfg.locked) {
      // PMP entries do not constrain M-mode unless locked; while the firmware executes
      // in vM-mode the unlocked entries must not restrict it, so they are installed
      // with full permissions (§4.2).
      cfg.r = true;
      cfg.w = true;
      cfg.x = true;
    }
    // The physical entries must never appear locked: a locked entry would constrain
    // the monitor itself and could not be reclaimed until reset.
    cfg.locked = false;
    next.cfg[entry] = cfg.ToByte();
    next.addr[entry] = vpmp.GetAddr(i);
  }

  // The all-memory default, while the firmware runs. It stays OFF in direct execution
  // (the OS), where only the virtual PMP entries the firmware configured apply,
  // matching S/U-mode semantics on the reference machine, and while the virtual PMP is
  // suppressed.
  if (inputs.firmware_world && !inputs.suppress_vpmp) {
    if (inputs.firmware_default_override.has_value()) {
      InstallRegion(&next, all_mem_entry, *inputs.firmware_default_override);
    } else {
      PmpCfg last;
      last.a = PmpAddrMode::kNapot;
      last.r = true;
      last.w = !inputs.mprv_emulation;
      last.x = true;
      if (inputs.mprv_emulation) {
        // Execute-only on all memory: loads and stores trap so the monitor can
        // perform them through the page tables on the firmware's behalf (§4.2).
        last.r = false;
        last.w = false;
      }
      next.cfg[all_mem_entry] = last.ToByte();
      next.addr[all_mem_entry] = NapotAddr(0, uint64_t{1} << 56);  // full PA space
    }
  }
  phys->Install(next);
}

}  // namespace vfm
