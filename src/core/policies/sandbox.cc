#include "src/core/policies/sandbox.h"

#include "src/common/hash.h"
#include "src/common/log.h"
#include "src/isa/sbi.h"

namespace vfm {

namespace {

constexpr unsigned kA0 = 10;
constexpr unsigned kA1 = 11;
constexpr unsigned kA6 = 16;
constexpr unsigned kA7 = 17;

bool IsMemFaultCause(uint64_t cause) {
  switch (static_cast<ExceptionCause>(cause)) {
    case ExceptionCause::kLoadAccessFault:
    case ExceptionCause::kStoreAccessFault:
    case ExceptionCause::kLoadAddrMisaligned:
    case ExceptionCause::kStoreAddrMisaligned:
    case ExceptionCause::kInstrAccessFault:
      return true;
    default:
      return false;
  }
}

}  // namespace

// Generated from the SBI v2.0 specification: number of argument registers (a0..)
// each call consumes. Calls not listed receive no OS register state.
unsigned SbiArgCount(uint64_t ext, uint64_t fid) {
  switch (ext) {
    case SbiExt::kBase:
      return fid == SbiFunc::kProbeExtension ? 1 : 0;
    case SbiExt::kTime:
      return fid == SbiFunc::kSetTimer ? 1 : 0;
    case SbiExt::kIpi:
      return fid == SbiFunc::kSendIpi ? 2 : 0;
    case SbiExt::kRfence:
      switch (fid) {
        case SbiFunc::kRemoteFenceI:
          return 2;
        case SbiFunc::kRemoteSfenceVma:
          return 4;
        default:
          return 0;
      }
    case SbiExt::kHsm:
      switch (fid) {
        case SbiFunc::kHartStart:
          return 3;
        case SbiFunc::kHartGetStatus:
          return 1;
        default:
          return 0;
      }
    case SbiExt::kSrst:
      return 2;
    case SbiExt::kLegacyPutchar:
      return 1;
    case SbiExt::kLegacyGetchar:
      return 0;
    default:
      return 0;
  }
}

SandboxPolicy::SandboxPolicy(const SandboxConfig& config) : config_(config) {}

void SandboxPolicy::OnInit(Monitor& monitor) {
  monitor_ = &monitor;
  scrub_.resize(monitor.machine().hart_count());
}

std::optional<PmpRegionRequest> SandboxPolicy::FirmwareDefaultOverride(unsigned hart) {
  (void)hart;
  if (!locked_) {
    return std::nullopt;  // during initialization the firmware may reach all memory
  }
  PmpRegionRequest request;
  request.active = true;
  request.base = config_.firmware_base;
  request.size = config_.firmware_size;
  request.r = true;
  request.w = true;
  request.x = true;
  return request;
}

void SandboxPolicy::SnapshotAndScrub(Monitor& monitor, unsigned hart) {
  HartScrubState& scrub = scrub_[hart];
  Hart& phys = monitor.machine().hart(hart);
  CsrFile& vcsr = monitor.vctx(hart).csrs();

  for (unsigned i = 0; i < 32; ++i) {
    scrub.gpr_snapshot[i] = phys.gpr(i);
  }
  for (size_t i = 0; i < scrub.scsr_snapshot.size(); ++i) {
    scrub.scsr_snapshot[i] = vcsr.Get(kOsSupervisorCsrs[i]);
  }
  scrub.mie_snapshot = vcsr.Get(kCsrMie);

  const uint64_t cause = phys.csrs().Get(kCsrMcause);
  scrub.entered_for_ecall =
      cause == CauseValue(ExceptionCause::kEcallFromS) ||
      cause == CauseValue(ExceptionCause::kEcallFromU);
  scrub.active = true;

  // Scrub: the firmware receives only the registers the SBI call consumes.
  unsigned args = 0;
  if (scrub.entered_for_ecall) {
    args = SbiArgCount(phys.gpr(kA7), phys.gpr(kA6));
  }
  for (unsigned i = 1; i < 32; ++i) {
    const bool is_arg = i >= kA0 && i < kA0 + args;
    const bool is_id = scrub.entered_for_ecall && (i == kA6 || i == kA7);
    if (!is_arg && !is_id) {
      phys.set_gpr(i, 0);
    }
  }
  monitor.ChargeCsrAccesses(phys, 8);
}

void SandboxPolicy::RestoreAfterFirmware(Monitor& monitor, unsigned hart) {
  HartScrubState& scrub = scrub_[hart];
  if (!scrub.active) {
    return;
  }
  scrub.active = false;
  Hart& phys = monitor.machine().hart(hart);
  CsrFile& vcsr = monitor.vctx(hart).csrs();

  for (unsigned i = 1; i < 32; ++i) {
    // SBI return values flow back through a0/a1; everything else is restored.
    if (scrub.entered_for_ecall && (i == kA0 || i == kA1)) {
      continue;
    }
    phys.set_gpr(i, scrub.gpr_snapshot[i]);
  }
  for (size_t i = 0; i < scrub.scsr_snapshot.size(); ++i) {
    vcsr.Set(kOsSupervisorCsrs[i], scrub.scsr_snapshot[i]);
  }
  vcsr.Set(kCsrMie, scrub.mie_snapshot);
  monitor.ChargeCsrAccesses(phys, 8);
}

void SandboxPolicy::OnWorldSwitchToFirmware(Monitor& monitor, unsigned hart) {
  if (!locked_) {
    return;  // the OS is not running yet; nothing to protect
  }
  SnapshotAndScrub(monitor, hart);
}

void SandboxPolicy::OnWorldSwitchToOs(Monitor& monitor, unsigned hart) {
  if (!locked_) {
    // First entry into S-mode: lock down OS memory on all harts until power-off and
    // measure the initial S-mode image (§5.2).
    locked_ = true;
    std::vector<uint8_t> image(config_.os_image_size);
    if (config_.os_image_size > 0 &&
        monitor.machine().bus().ReadBytes(config_.os_image_base, image.data(), image.size())) {
      os_measurement_ = Sha256::ToHex(Sha256::Digest(image.data(), image.size()));
    }
    for (unsigned i = 0; i < monitor.machine().hart_count(); ++i) {
      monitor.RebuildPmp(monitor.machine().hart(i));
    }
    VFM_LOG_INFO("sandbox", "lockdown engaged; OS image measurement %s",
                 os_measurement_.c_str());
    return;
  }
  RestoreAfterFirmware(monitor, hart);
}

PolicyDecision SandboxPolicy::OnFirmwareTrap(Monitor& monitor, unsigned hart,
                                             const TrapInfo& trap) {
  if (trap.is_interrupt() || !IsMemFaultCause(trap.cause)) {
    return PolicyDecision::kPassThrough;
  }
  if (!locked_) {
    return PolicyDecision::kPassThrough;
  }
  const uint64_t addr = trap.tval;
  // Documented platform resources may be granted explicitly; here the UART console.
  if (config_.allow_uart && addr >= config_.uart_base &&
      addr < config_.uart_base + config_.uart_size) {
    if (monitor.EmulateMmioPassthrough(monitor.machine().hart(hart), addr)) {
      return PolicyDecision::kHandled;
    }
  }
  // Anything outside the firmware's own range is a sandbox violation.
  if (addr >= config_.firmware_base && addr < config_.firmware_base + config_.firmware_size) {
    return PolicyDecision::kPassThrough;  // an architectural fault inside its own range
  }
  return PolicyDecision::kDeny;
}

PolicyDecision SandboxPolicy::OnOsTrap(Monitor& monitor, unsigned hart, const TrapInfo& trap) {
  // The sandbox implements misaligned load/store emulation in-policy (§5.2), so the
  // firmware never needs OS register state for it.
  if (trap.cause == CauseValue(ExceptionCause::kLoadAddrMisaligned) ||
      trap.cause == CauseValue(ExceptionCause::kStoreAddrMisaligned)) {
    Hart& phys = monitor.machine().hart(hart);
    monitor.RecordOsTrap(OsTrapCause::kMisaligned);
    if (monitor.EmulateMisalignedOs(phys, trap)) {
      return PolicyDecision::kHandled;
    }
  }
  return PolicyDecision::kPassThrough;
}

}  // namespace vfm
