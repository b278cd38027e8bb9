// The isolated-domain policy: one security-monitor lifecycle behind both Keystone
// enclaves (paper §5.3) and ACE confidential VMs (§5.4). A domain is a
// physically-contiguous, power-of-two memory region that the host creates (the
// monitor measures it with SHA-256), runs, resumes and destroys through an SBI
// extension. A policy PMP entry that outranks the virtual PMPs closes the region to
// the OS and the firmware; while the domain runs on a hart, that entry opens the
// region and every other entry is withheld.
//
// The rules are the same for every domain:
//  * One live domain per machine: the single policy PMP slot can close only one
//    region, so create returns kDenied while a domain is live, and its id is 0.
//    Its region lies in RAM. It runs on at most one hart at a time: meanwhile run,
//    resume and destroy from other harts return kDenied.
//  * Nothing is delegated while a domain runs (medeleg = mideleg = 0), so every
//    exception it raises and every interrupt it meets reaches this policy, and none
//    enters the host's vector from inside the domain. The H extension keeps the VS
//    bits of mideleg set; those interrupts go through hideleg to VS-mode only.
//  * Exit and yield are the only domain calls. Any other ecall, and any exception,
//    ends the domain with (kDone, kFailed) and frees its slot.
//  * The domain owns its translation CSRs: every entry installs the domain's values,
//    and every leave saves them and restores the host's delegation and translation
//    CSRs.
//  * An interrupt preempts the domain: the host sees kInterrupted at its call site,
//    and the monitor then handles the interrupt there.
//
// KeystonePolicy and AcePolicy differ only in the constant DomainAbi they pass in.

#ifndef SRC_CORE_POLICIES_DOMAIN_H_
#define SRC_CORE_POLICIES_DOMAIN_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/core/monitor.h"
#include "src/core/policy.h"

namespace vfm {

// What one policy's domains look like: its SBI interface, where its domains run and
// what a switch costs.
struct DomainAbi {
  const char* name;
  uint64_t ext;  // SBI extension ID
  // Host calls (ecall from S-mode): create (a0 = base, a1 = size, a2 = entry;
  // returns a1 = id), destroy (a0 = id), run (a0 = id) starts the domain at its
  // entry, and resume (a0 = id) continues a started one. When run and resume are
  // one call, it continues a started domain and starts a new one.
  uint64_t create, destroy, run, resume;
  // Domain calls: exit (a0 = exit value) and yield.
  uint64_t exit, yield;
  bool vs_mode;  // runs in VS-mode (needs the H extension) instead of U-mode
  std::array<uint16_t, 2> translation_csrs;  // the CSRs the domain owns; 0 = unused
  unsigned switch_csr_accesses;              // charged on every entry and leave
};

// The reason run/resume returns in a1. A call that fails returns kDone with its
// error in a0.
struct DomainExit {
  static constexpr uint64_t kDone = 0;         // ended; a0 = exit value or kFailed
  static constexpr uint64_t kInterrupted = 1;  // preempted; resume to continue
  static constexpr uint64_t kYielded = 2;      // yielded; resume to continue
};

class DomainPolicy : public PolicyModule {
 public:
  explicit DomainPolicy(const DomainAbi& abi) : abi_(abi) {}

  const char* name() const override { return abi_.name; }
  void OnInit(Monitor& monitor) override;

  PolicyDecision OnOsEcall(Monitor& monitor, unsigned hart) override;
  PolicyDecision OnOsTrap(Monitor& monitor, unsigned hart, const TrapInfo& trap) override;
  PolicyDecision OnInterrupt(Monitor& monitor, unsigned hart, const TrapInfo& trap) override;

  PmpRegionRequest PolicySlot(unsigned hart) override;
  bool SuppressVpmp(unsigned hart) override { return running(hart); }

  // Introspection for tests, benches and examples.
  const DomainAbi& abi() const { return abi_; }
  bool live() const { return live_; }
  bool running(unsigned hart) const { return running_hart_ == static_cast<int>(hart); }
  const std::string& measurement() const { return measurement_; }

 private:
  // What a switch saves and installs: GPRs, the pc to continue at, and the values
  // of the ABI's translation CSRs.
  struct Context {
    std::array<uint64_t, 32> gprs = {};
    std::array<uint64_t, 2> csrs = {};
    uint64_t pc = 0;
  };

  int64_t Create(Monitor& monitor, uint64_t base, uint64_t size, uint64_t entry);
  void Enter(Monitor& monitor, Hart& hart, bool fresh);
  void Leave(Monitor& monitor, Hart& hart, uint64_t reason, uint64_t value);
  // Leaves with (kDone, value) and frees the slot.
  void End(Monitor& monitor, Hart& hart, uint64_t value);
  // Saves the hart's GPRs and translation CSRs into `save` and installs `load`'s.
  void Swap(Hart& hart, Context& save, const Context& load);
  void RebuildAllPmps(Monitor& monitor);

  const DomainAbi abi_;
  bool live_ = false;
  bool started_ = false;
  int running_hart_ = -1;
  uint64_t base_ = 0;
  uint64_t size_ = 0;
  uint64_t entry_ = 0;
  std::string measurement_;
  Context domain_;
  Context host_;
  uint64_t host_medeleg_ = 0;
  uint64_t host_mideleg_ = 0;
};

}  // namespace vfm

#endif  // SRC_CORE_POLICIES_DOMAIN_H_
