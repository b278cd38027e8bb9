#include "src/platform/platform.h"

#include "src/common/check.h"
#include "src/kernel/kernel.h"

namespace vfm {

const char* DeployModeName(DeployMode mode) {
  switch (mode) {
    case DeployMode::kNative:
      return "native";
    case DeployMode::kMiralis:
      return "monitor";
    case DeployMode::kMiralisNoOffload:
      return "monitor-no-offload";
  }
  return "?";
}

PlatformProfile MakePlatform(PlatformKind kind, unsigned hart_count, bool with_blockdev) {
  PlatformProfile profile;
  MachineConfig& mc = profile.machine;
  mc.hart_count = hart_count;
  mc.blockdev.enabled = with_blockdev;
  mc.isa.pmp_entries = 8;
  mc.isa.has_time_csr = false;  // both boards trap on rdtime (paper §3.4)
  mc.isa.has_sstc = false;
  mc.isa.hw_misaligned = false;  // misaligned accesses trap for firmware emulation

  switch (kind) {
    case PlatformKind::kVf2Sim:
      profile.name = "vf2-sim";
      mc.isa.mvendorid = 0x0489;  // StarFive-flavored identity
      mc.isa.marchid = 0x74;      // U74-flavored
      mc.cost.instr_base = 1;
      mc.cost.instr_muldiv = 8;
      mc.cost.instr_mem = 2;
      mc.cost.trap_entry = 60;
      mc.cost.page_walk_level = 10;
      mc.cost.hal_csr_access = 12;
      mc.cost.hal_mem_access = 8;
      mc.cost.monitor_dispatch = 180;  // in-order core: slow monitor-resident code
      mc.cost.tlb_flush = 150;
      mc.cost.mtime_tick_cycles = 150;  // ~10 MHz timebase at 1.5 GHz
      mc.cost.freq_mhz = 1500;
      break;
    case PlatformKind::kP550Sim:
      profile.name = "p550-sim";
      mc.isa.mvendorid = 0x0537;  // SiFive-flavored identity
      mc.isa.marchid = 0x550;
      mc.isa.has_custom_csrs = true;  // four documented custom CSRs (§8.2)
      mc.cost.instr_base = 1;
      mc.cost.instr_muldiv = 4;
      mc.cost.instr_mem = 1;
      mc.cost.trap_entry = 110;  // deep OoO pipeline: costly flushes
      mc.cost.page_walk_level = 6;
      mc.cost.hal_csr_access = 8;
      mc.cost.hal_mem_access = 4;
      mc.cost.monitor_dispatch = 80;  // fast OoO core runs monitor code quickly
      mc.cost.tlb_flush = 1100;  // TLB/pipeline flushes dominate world switches
      mc.cost.mtime_tick_cycles = 180;  // ~10 MHz timebase at 1.8 GHz
      mc.cost.freq_mhz = 1800;
      break;
    case PlatformKind::kQemuSim:
      profile.name = "qemu-sim";
      mc.isa.has_h_ext = true;
      mc.cost.trap_entry = 40;
      mc.cost.hal_csr_access = 10;
      mc.cost.hal_mem_access = 4;
      mc.cost.tlb_flush = 100;
      mc.cost.mtime_tick_cycles = 100;
      mc.cost.freq_mhz = 1000;
      break;
    case PlatformKind::kRva23Sim:
      // vf2-sim timing with the RVA23-profile features: time reads and supervisor
      // timers are handled in hardware, never trapping to M-mode.
      profile.name = "rva23-sim";
      mc.isa.has_time_csr = true;
      mc.isa.has_sstc = true;
      mc.cost.instr_base = 1;
      mc.cost.instr_muldiv = 8;
      mc.cost.instr_mem = 2;
      mc.cost.trap_entry = 60;
      mc.cost.page_walk_level = 10;
      mc.cost.hal_csr_access = 12;
      mc.cost.hal_mem_access = 8;
      mc.cost.monitor_dispatch = 180;
      mc.cost.tlb_flush = 150;
      mc.cost.mtime_tick_cycles = 150;
      mc.cost.freq_mhz = 1500;
      break;
  }
  return profile;
}

uint64_t System::ReadResult(unsigned slot) const {
  uint64_t value = 0;
  const_cast<Machine*>(machine.get())
      ->bus()
      .Read(KernelBuilder::ResultAddr(kernel, slot), 8, &value);
  return value;
}

SandboxConfigForProfile DefaultSandboxRegions(const PlatformProfile& profile) {
  SandboxConfigForProfile regions;
  regions.firmware_base = profile.firmware_base;
  regions.firmware_size = profile.firmware_size;
  regions.os_image_base = profile.kernel_base;
  regions.os_image_size = profile.os_image_size;
  regions.uart_base = profile.machine.map.uart_base;
  regions.uart_size = Uart::kSize;
  return regions;
}

System BootSystem(const PlatformProfile& profile, DeployMode mode, Image kernel,
                  FirmwareKind fw_kind, PolicyModule* policy, unsigned micro_probe) {
  System system;
  system.machine = std::make_unique<Machine>(profile.machine);
  system.kernel = std::move(kernel);

  FirmwareConfig fw_config;
  fw_config.base = profile.firmware_base;
  fw_config.hart_count = profile.machine.hart_count;
  fw_config.clint_base = profile.machine.map.clint_base;
  fw_config.uart_base = profile.machine.map.uart_base;
  fw_config.kernel_entry = system.kernel.entry;
  fw_config.protect_base = profile.firmware_base;
  fw_config.protect_size = profile.firmware_size;
  fw_config.enable_sstc = profile.machine.isa.has_sstc;

  switch (fw_kind) {
    case FirmwareKind::kOpenSbiSim:
      system.firmware = BuildOpenSbiSim(fw_config);
      break;
    case FirmwareKind::kMiniSbi:
      VFM_CHECK_MSG(profile.machine.hart_count == 1, "minisbi is a single-hart firmware");
      system.firmware = BuildMiniSbi(fw_config);
      break;
    case FirmwareKind::kMicro:
      system.firmware = BuildMicroFirmware(fw_config, micro_probe);
      break;
  }
  VFM_CHECK_MSG(system.firmware.bytes.size() <= profile.firmware_size,
                "firmware image exceeds its region");

  VFM_CHECK(system.machine->LoadImage(system.firmware.base, system.firmware.bytes));
  VFM_CHECK(system.machine->LoadImage(system.kernel.base, system.kernel.bytes));

  if (mode == DeployMode::kNative) {
    // The first-stage loader hands over to the vendor firmware in real M-mode.
    for (unsigned i = 0; i < system.machine->hart_count(); ++i) {
      Hart& hart = system.machine->hart(i);
      hart.set_pc(system.firmware.entry);
      hart.set_priv(PrivMode::kMachine);
      hart.set_gpr(10, i);  // a0 = hart id
      hart.set_gpr(11, 0);  // a1 = no device tree
    }
    return system;
  }

  // Virtualized deployment: the monitor slots in between the loader and the vendor
  // firmware (Figure 9) and enters the firmware in vM-mode.
  MonitorConfig monitor_config;
  monitor_config.monitor_base = profile.monitor_base;
  monitor_config.monitor_size = profile.monitor_size;
  monitor_config.firmware_entry = system.firmware.entry;
  monitor_config.offload_mask = mode == DeployMode::kMiralis ? ~uint32_t{0} : 0;
  system.monitor = std::make_unique<Monitor>(system.machine.get(), monitor_config);
  if (policy != nullptr) {
    system.monitor->SetPolicy(policy);
  }
  system.monitor->Boot();
  return system;
}

}  // namespace vfm
