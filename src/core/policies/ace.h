// The ACE policy (paper §5.4): confidential VMs on top of the monitor. The policy
// ports the ACE security-monitor model: the host hypervisor schedules CVMs but cannot
// access their memory, and — going beyond the original ACE — the vendor firmware is
// also excluded from the CVM's TCB because it runs deprivileged under the monitor.
// CVMs are isolated domains (domain.h) that run in VS-mode and own vsatp and hgatp.
//
// Platform requirement: the H extension (VS-mode) in the machine configuration. As in
// our simulator's documented H subset, guest-physical addresses map 1:1 (hgatp bare)
// and isolation is enforced by the policy PMP slot — matching ACE's PMP-based
// isolation model.

#ifndef SRC_CORE_POLICIES_ACE_H_
#define SRC_CORE_POLICIES_ACE_H_

#include <cstdint>

#include "src/core/policies/domain.h"

namespace vfm {

// SBI extension ID of the ACE (confidential VM) interface ("ACE").
constexpr uint64_t kAceSbiExt = 0x414345;

struct AceFunc {
  static constexpr uint64_t kCreateCvm = 0;   // a0 = base, a1 = size, a2 = entry
  static constexpr uint64_t kRunCvm = 1;      // a0 = id: starts or continues the CVM
  static constexpr uint64_t kDestroyCvm = 2;  // a0 = id
  // CVM-side (ecall from VS-mode).
  static constexpr uint64_t kCvmExit = 16;    // a0 = exit value
  static constexpr uint64_t kCvmYield = 17;
};

class AcePolicy : public DomainPolicy {
 public:
  AcePolicy()
      : DomainPolicy({.name = "ace",
                      .ext = kAceSbiExt,
                      .create = AceFunc::kCreateCvm,
                      .destroy = AceFunc::kDestroyCvm,
                      .run = AceFunc::kRunCvm,
                      .resume = AceFunc::kRunCvm,
                      .exit = AceFunc::kCvmExit,
                      .yield = AceFunc::kCvmYield,
                      .vs_mode = true,
                      .translation_csrs = {kCsrVsatp, kCsrHgatp},
                      .switch_csr_accesses = 48}) {}
};

}  // namespace vfm

#endif  // SRC_CORE_POLICIES_ACE_H_
