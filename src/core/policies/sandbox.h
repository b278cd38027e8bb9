// The firmware sandbox policy (paper §5.2): isolates the whole OS from an untrusted
// firmware. The firmware is confined to a small memory range after the first entry
// into S-mode; general-purpose registers and S-mode CSR shadows are scrubbed across
// world switches; SBI-call arguments pass through a per-call allow-list generated
// from the SBI specification; and the initial S-mode image is measured (SHA-256).

#ifndef SRC_CORE_POLICIES_SANDBOX_H_
#define SRC_CORE_POLICIES_SANDBOX_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/monitor.h"
#include "src/core/policy.h"

namespace vfm {

struct SandboxConfig {
  // The memory range the firmware keeps after lockdown (power of two, aligned).
  uint64_t firmware_base = 0;
  uint64_t firmware_size = 0;
  // The OS image range measured at lockdown.
  uint64_t os_image_base = 0;
  uint64_t os_image_size = 0;
  // Console passthrough: a documented platform MMIO window the firmware may keep
  // (the UART). Disable to test full lockdown.
  bool allow_uart = true;
  uint64_t uart_base = 0;
  uint64_t uart_size = 0;
};

// The number of SBI argument registers (a0..a5) passed through to the firmware for a
// given extension/function, from the SBI specification. Everything else is scrubbed.
unsigned SbiArgCount(uint64_t ext, uint64_t fid);

class SandboxPolicy : public PolicyModule {
 public:
  explicit SandboxPolicy(const SandboxConfig& config);

  const char* name() const override { return "sandbox"; }
  void OnInit(Monitor& monitor) override;

  PolicyDecision OnFirmwareTrap(Monitor& monitor, unsigned hart, const TrapInfo& trap) override;
  void OnWorldSwitchToFirmware(Monitor& monitor, unsigned hart) override;
  void OnWorldSwitchToOs(Monitor& monitor, unsigned hart) override;
  PolicyDecision OnOsTrap(Monitor& monitor, unsigned hart, const TrapInfo& trap) override;

  std::optional<PmpRegionRequest> FirmwareDefaultOverride(unsigned hart) override;

  // Measurement of the initial S-mode image, available after lockdown (hex string).
  bool locked() const { return locked_; }
  const std::string& os_image_measurement() const { return os_measurement_; }

 private:
  struct HartScrubState {
    std::array<uint64_t, 32> gpr_snapshot = {};
    // The OS's supervisor CSRs (kOsSupervisorCsrs), snapshotted and restored around
    // every firmware entry after lockdown so the firmware can neither corrupt nor
    // leak them.
    std::array<uint64_t, std::size(kOsSupervisorCsrs)> scsr_snapshot = {};
    uint64_t mie_snapshot = 0;
    bool entered_for_ecall = false;
    bool active = false;
  };

  void SnapshotAndScrub(Monitor& monitor, unsigned hart);
  void RestoreAfterFirmware(Monitor& monitor, unsigned hart);

  SandboxConfig config_;
  Monitor* monitor_ = nullptr;
  bool locked_ = false;
  std::string os_measurement_;
  std::vector<HartScrubState> scrub_;
};

}  // namespace vfm

#endif  // SRC_CORE_POLICIES_SANDBOX_H_
