// The Keystone policy (paper §5.3): a re-implementation of the Keystone security
// monitor as a policy module, adding enclave support to the monitor. Enclaves are
// isolated domains (domain.h) that run in U-mode with translation off (satp = 0),
// shielded from both the OS and the firmware. The SBI interface mirrors Keystone's
// create/run/resume/destroy lifecycle; attestation is limited to a SHA-256
// measurement at creation (as in the paper, the full attestation flow is out of
// scope).

#ifndef SRC_CORE_POLICIES_KEYSTONE_H_
#define SRC_CORE_POLICIES_KEYSTONE_H_

#include <cstdint>

#include "src/core/policies/domain.h"

namespace vfm {

// SBI extension ID of the Keystone security monitor interface.
constexpr uint64_t kKeystoneSbiExt = 0x08424B45;

// Function IDs (host side mirrors the Keystone SM, enclave side is the runtime ABI).
struct KeystoneFunc {
  static constexpr uint64_t kCreateEnclave = 2001;
  static constexpr uint64_t kDestroyEnclave = 2002;
  static constexpr uint64_t kRunEnclave = 2003;     // starts at the entry point
  static constexpr uint64_t kResumeEnclave = 2005;  // continues a started enclave
  // Enclave-side calls.
  static constexpr uint64_t kStopEnclave = 3004;   // voluntary yield
  static constexpr uint64_t kExitEnclave = 3006;   // terminal exit with a value
};

class KeystonePolicy : public DomainPolicy {
 public:
  KeystonePolicy()
      : DomainPolicy({.name = "keystone",
                      .ext = kKeystoneSbiExt,
                      .create = KeystoneFunc::kCreateEnclave,
                      .destroy = KeystoneFunc::kDestroyEnclave,
                      .run = KeystoneFunc::kRunEnclave,
                      .resume = KeystoneFunc::kResumeEnclave,
                      .exit = KeystoneFunc::kExitEnclave,
                      .yield = KeystoneFunc::kStopEnclave,
                      .vs_mode = false,
                      .translation_csrs = {kCsrSatp},
                      .switch_csr_accesses = 40}) {}
};

}  // namespace vfm

#endif  // SRC_CORE_POLICIES_KEYSTONE_H_
