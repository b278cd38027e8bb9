#include "src/core/policies/domain.h"

#include <vector>

#include "src/common/bits.h"
#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/log.h"
#include "src/isa/sbi.h"

namespace vfm {

namespace {
constexpr unsigned kA0 = 10;
constexpr unsigned kA1 = 11;
constexpr unsigned kA2 = 12;
constexpr unsigned kA6 = 16;
constexpr unsigned kA7 = 17;
}  // namespace

void DomainPolicy::OnInit(Monitor& monitor) {
  VFM_CHECK_MSG(!abi_.vs_mode || monitor.machine().config().isa.has_h_ext,
                "the %s policy requires the H extension", abi_.name);
}

PmpRegionRequest DomainPolicy::PolicySlot(unsigned hart) {
  // Open (RWX) on the hart the domain runs on, where SuppressVpmp closes everything
  // else; closed everywhere else while the domain is live.
  if (running(hart)) {
    return {true, base_, size_, true, true, true};
  }
  if (live_) {
    return {true, base_, size_, false, false, false};
  }
  return {};
}

void DomainPolicy::RebuildAllPmps(Monitor& monitor) {
  for (unsigned h = 0; h < monitor.machine().hart_count(); ++h) {
    monitor.RebuildPmp(monitor.machine().hart(h));
  }
}

int64_t DomainPolicy::Create(Monitor& monitor, uint64_t base, uint64_t size, uint64_t entry) {
  // The region must lie in RAM: the host picks base and size, and the measurement
  // below reads the whole region.
  const MemoryMap& map = monitor.machine().config().map;
  const bool in_ram =
      base >= map.ram_base && size <= map.ram_size && base - map.ram_base <= map.ram_size - size;
  if (!IsPowerOfTwo(size) || size < 4096 || !IsAligned(base, size) || !in_ram ||
      entry < base || entry - base >= size) {
    return SbiError::kInvalidParam;
  }
  if (live_) {
    return SbiError::kDenied;
  }
  live_ = true;
  started_ = false;
  base_ = base;
  size_ = size;
  entry_ = entry;
  std::vector<uint8_t> image(size);
  VFM_CHECK(monitor.machine().bus().ReadBytes(base, image.data(), size));
  measurement_ = Sha256::ToHex(Sha256::Digest(image.data(), image.size()));
  RebuildAllPmps(monitor);  // close the region on every hart
  VFM_LOG_INFO(abi_.name, "domain 0 created at 0x%llx (+0x%llx), measurement %s",
               static_cast<unsigned long long>(base), static_cast<unsigned long long>(size),
               measurement_.c_str());
  return SbiError::kSuccess;
}

void DomainPolicy::Swap(Hart& hart, Context& save, const Context& load) {
  for (unsigned i = 1; i < 32; ++i) {
    save.gprs[i] = hart.gpr(i);
    hart.set_gpr(i, load.gprs[i]);
  }
  for (size_t i = 0; i < abi_.translation_csrs.size(); ++i) {
    if (const uint16_t csr = abi_.translation_csrs[i]; csr != 0) {
      save.csrs[i] = hart.csrs().Get(csr);
      hart.csrs().Set(csr, load.csrs[i]);
    }
  }
}

void DomainPolicy::Enter(Monitor& monitor, Hart& hart, bool fresh) {
  if (fresh) {
    domain_ = Context{};  // all-zero registers: a0 holds the domain id, 0
    domain_.pc = entry_;
    started_ = true;
  }
  host_.pc = hart.csrs().Get(kCsrMepc) + 4;
  host_medeleg_ = hart.csrs().Get(kCsrMedeleg);
  host_mideleg_ = hart.csrs().Get(kCsrMideleg);
  hart.csrs().Set(kCsrMedeleg, 0);
  hart.csrs().Set(kCsrMideleg, 0);
  Swap(hart, host_, domain_);
  running_hart_ = static_cast<int>(hart.index());
  monitor.RebuildPmp(hart);
  monitor.ChargeTlbFlush(hart);
  monitor.ChargeCsrAccesses(hart, abi_.switch_csr_accesses);

  hart.set_virt(abi_.vs_mode);
  hart.set_priv(abi_.vs_mode ? PrivMode::kSupervisor : PrivMode::kUser);
  hart.set_pc(domain_.pc);
}

void DomainPolicy::Leave(Monitor& monitor, Hart& hart, uint64_t reason, uint64_t value) {
  domain_.pc = hart.csrs().Get(kCsrMepc);
  Swap(hart, domain_, host_);
  hart.csrs().Set(kCsrMedeleg, host_medeleg_);
  hart.csrs().Set(kCsrMideleg, host_mideleg_);
  running_hart_ = -1;
  hart.set_gpr(kA0, value);
  hart.set_gpr(kA1, reason);
  monitor.RebuildPmp(hart);
  monitor.ChargeTlbFlush(hart);
  monitor.ChargeCsrAccesses(hart, abi_.switch_csr_accesses);

  hart.set_virt(false);
  hart.set_priv(PrivMode::kSupervisor);
  hart.set_pc(host_.pc);
}

void DomainPolicy::End(Monitor& monitor, Hart& hart, uint64_t value) {
  Leave(monitor, hart, DomainExit::kDone, value);
  live_ = false;
  RebuildAllPmps(monitor);
}

PolicyDecision DomainPolicy::OnOsEcall(Monitor& monitor, unsigned hart_index) {
  Hart& hart = monitor.machine().hart(hart_index);
  if (hart.gpr(kA7) != abi_.ext ||
      hart.csrs().Get(kCsrMcause) != CauseValue(ExceptionCause::kEcallFromS)) {
    return PolicyDecision::kPassThrough;  // domain calls arrive through OnOsTrap
  }
  const uint64_t fid = hart.gpr(kA6);
  // Destroy and run name the live domain's id, 0, and need it idle: while it runs on
  // one hart, no other hart may enter or free it.
  const int64_t usable = !(live_ && hart.gpr(kA0) == 0) ? SbiError::kInvalidParam
                         : running_hart_ >= 0           ? SbiError::kDenied
                                                        : SbiError::kSuccess;
  int64_t status = SbiError::kNotSupported;
  if (fid == abi_.create) {
    status = Create(monitor, hart.gpr(kA0), hart.gpr(kA1), hart.gpr(kA2));
  } else if (fid == abi_.destroy) {
    status = usable;
    if (status == SbiError::kSuccess) {
      live_ = false;
      RebuildAllPmps(monitor);
    }
  } else if (fid == abi_.run || fid == abi_.resume) {
    // Resume continues a started domain; otherwise only run, which starts it, is valid.
    const bool resume = fid == abi_.resume && started_;
    status = resume || fid == abi_.run ? usable : SbiError::kInvalidParam;
    if (status == SbiError::kSuccess) {
      Enter(monitor, hart, /*fresh=*/!resume);
      return PolicyDecision::kHandled;
    }
  }
  hart.set_gpr(kA0, static_cast<uint64_t>(status));
  hart.set_gpr(kA1, 0);  // create's id: the one domain is always 0
  monitor.ReturnToOs(hart, hart.csrs().Get(kCsrMepc) + 4);
  return PolicyDecision::kHandled;
}

PolicyDecision DomainPolicy::OnOsTrap(Monitor& monitor, unsigned hart_index,
                                      const TrapInfo& trap) {
  if (!running(hart_index)) {
    return PolicyDecision::kPassThrough;
  }
  // No exception is delegated while the domain runs, so every one it raises lands
  // here. Only its exit and yield calls keep it alive; anything else would leak its
  // state to the firmware or the host, so it ends the domain.
  Hart& hart = monitor.machine().hart(hart_index);
  const ExceptionCause ecall =
      abi_.vs_mode ? ExceptionCause::kEcallFromVs : ExceptionCause::kEcallFromU;
  const bool call = trap.cause == CauseValue(ecall) && hart.gpr(kA7) == abi_.ext;
  if (call && hart.gpr(kA6) == abi_.exit) {
    End(monitor, hart, hart.gpr(kA0));
  } else if (call && hart.gpr(kA6) == abi_.yield) {
    hart.csrs().Set(kCsrMepc, trap.epc + 4);  // resume past the ecall
    Leave(monitor, hart, DomainExit::kYielded, 0);
  } else {
    VFM_LOG_WARN(abi_.name, "domain ended on hart %u: cause=%llu tval=0x%llx", hart_index,
                 static_cast<unsigned long long>(trap.cause),
                 static_cast<unsigned long long>(trap.tval));
    End(monitor, hart, static_cast<uint64_t>(SbiError::kFailed));
  }
  return PolicyDecision::kHandled;
}

PolicyDecision DomainPolicy::OnInterrupt(Monitor& monitor, unsigned hart_index,
                                         const TrapInfo& trap) {
  (void)trap;
  if (!running(hart_index)) {
    return PolicyDecision::kPassThrough;
  }
  // Preemption: park the domain and hand the host "interrupted"; the monitor's
  // interrupt handling then runs against the host context. Leave pointed the hart at
  // the host's call site; aim the trap return there too instead of into the domain.
  Hart& hart = monitor.machine().hart(hart_index);
  Leave(monitor, hart, DomainExit::kInterrupted, 0);
  hart.csrs().Set(kCsrMepc, hart.pc());
  uint64_t mstatus = hart.csrs().mstatus();
  mstatus = InsertBits(mstatus, MstatusBits::kMppHi, MstatusBits::kMppLo,
                       static_cast<uint64_t>(PrivMode::kSupervisor));
  mstatus = SetBit(mstatus, MstatusBits::kMpv, 0);
  hart.csrs().set_mstatus(mstatus);
  return PolicyDecision::kPassThrough;
}

}  // namespace vfm
