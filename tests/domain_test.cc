// Lifecycle tests for the isolated-domain policy (src/core/policies/domain.h), run on
// both of its users: Keystone enclaves (U-mode, on vf2-sim) and ACE confidential VMs
// (VS-mode, on the H-extension qemu-sim). Every host kernel and domain payload here
// is built from the policy's DomainAbi, so one program exercises both policies.

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/asm/assembler.h"
#include "src/core/policies/ace.h"
#include "src/core/policies/keystone.h"
#include "src/isa/sbi.h"
#include "src/kernel/kernel.h"
#include "src/platform/platform.h"

namespace vfm {
namespace {

// Small enough that a domain fault which livelocks the host fails the test quickly.
constexpr uint64_t kBudget = 5'000'000;
// A function ID neither policy implements.
constexpr uint64_t kUnknownCall = 0xBAD;

template <typename Policy>
class DomainTest : public ::testing::Test {
 protected:
  // The H-extension platform for VS-mode domains, vf2-sim for U-mode ones.
  PlatformProfile Platform(unsigned harts) const {
    return MakePlatform(abi.vs_mode ? PlatformKind::kQemuSim : PlatformKind::kVf2Sim, harts,
                        false);
  }

  KernelConfig HostConfig(unsigned harts = 1) const {
    KernelConfig config;
    config.base = profile.kernel_base;
    config.hart_count = harts;
    config.finisher_base = profile.machine.map.finisher_base;
    return config;
  }

  // The domain image: `body`, then exit with a0.
  Image Payload(const std::function<void(Assembler&)>& body) const {
    Assembler a(profile.enclave_base);
    a.Bind("_start");
    body(a);
    a.Li(a7, abi.ext);
    a.Li(a6, abi.exit);
    a.Ecall();
    a.Bind("hang");
    a.J("hang");
    return std::move(a.Finish()).value();
  }

  void EmitCall(Assembler& a, uint64_t fid) const {
    a.Li(a7, abi.ext);
    a.Li(a6, fid);
    a.Ecall();
  }

  // create(region, entry): the status lands in a0.
  void EmitCreate(Assembler& a, uint64_t entry) const {
    a.Li(a0, profile.enclave_base);
    a.Li(a1, profile.enclave_size);
    a.Li(a2, entry);
    EmitCall(a, abi.create);
  }

  // run(0), then resume(0) until the domain is done: its exit value (or run's error)
  // lands in a0. `tag` keeps the labels of several copies apart.
  void EmitRunUntilDone(Assembler& a, const std::string& tag = "run") const {
    a.Li(a0, 0);
    EmitCall(a, abi.run);
    a.Bind(tag + "_check");
    a.Li(t0, DomainExit::kDone);
    a.Beq(a1, t0, tag + "_done");
    a.Li(a0, 0);
    EmitCall(a, abi.resume);
    a.J(tag + "_check");
    a.Bind(tag + "_done");
  }

  System Boot(Image host, const Image& payload, unsigned harts = 1) {
    System system = BootSystem(Platform(harts), DeployMode::kMiralis, std::move(host),
                               FirmwareKind::kOpenSbiSim, &policy);
    EXPECT_TRUE(system.machine->LoadImage(payload.base, payload.bytes));
    return system;
  }

  Policy policy;
  const DomainAbi& abi = policy.abi();
  const PlatformProfile profile = Platform(1);
};

struct PolicyName {
  template <typename Policy>
  static std::string GetName(int) {
    return Policy().abi().name;
  }
};

using Policies = ::testing::Types<KeystonePolicy, AcePolicy>;
TYPED_TEST_SUITE(DomainTest, Policies, PolicyName);

TYPED_TEST(DomainTest, LoadOutsideRegionEndsDomain) {
  // The domain reads host memory. Nothing is delegated while it runs, so the fault
  // reaches the policy, which ends the domain; the host then finishes normally.
  const Image payload = this->Payload([&](Assembler& a) {
    a.Li(t0, this->profile.kernel_base);
    a.Ld(a0, t0, 0);
  });
  KernelBuilder kb(this->HostConfig());
  Assembler& a = kb.assembler();
  this->EmitCreate(a, payload.entry);
  this->EmitRunUntilDone(a);
  kb.EmitStoreResult(KernelSlots::kScratch);
  kb.EmitFinish(/*pass=*/true);
  System system = this->Boot(kb.Finish(), payload);
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  EXPECT_EQ(system.machine->finisher().exit_code(), 0u);
  EXPECT_EQ(static_cast<int64_t>(system.ReadResult(KernelSlots::kScratch)), SbiError::kFailed);
  EXPECT_FALSE(this->policy.live());
  EXPECT_FALSE(this->policy.running(0));
}

TYPED_TEST(DomainTest, UnknownCallFreesSlot) {
  // A call of the policy's own extension that the domain may not make ends it like
  // any other foreign call, and its slot is free for the next create.
  const Image payload = this->Payload([&](Assembler& a) {
    a.Li(a7, this->abi.ext);
    a.Li(a6, kUnknownCall);
    a.Ecall();
  });
  KernelBuilder kb(this->HostConfig());
  Assembler& a = kb.assembler();
  this->EmitCreate(a, payload.entry);
  this->EmitCreate(a, payload.entry);
  kb.EmitStoreResult(KernelSlots::kScratch);  // create while live
  this->EmitRunUntilDone(a);
  kb.EmitStoreResult(KernelSlots::kScratch + 1);  // the ended run
  this->EmitCreate(a, payload.entry);
  kb.EmitStoreResult(KernelSlots::kScratch + 2);  // create after the end
  kb.EmitFinish(/*pass=*/true);
  System system = this->Boot(kb.Finish(), payload);
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  EXPECT_EQ(system.machine->finisher().exit_code(), 0u);
  EXPECT_EQ(static_cast<int64_t>(system.ReadResult(KernelSlots::kScratch)), SbiError::kDenied);
  EXPECT_EQ(static_cast<int64_t>(system.ReadResult(KernelSlots::kScratch + 1)),
            SbiError::kFailed);
  EXPECT_EQ(system.ReadResult(KernelSlots::kScratch + 2), 0u);
  EXPECT_TRUE(this->policy.live());
}

TYPED_TEST(DomainTest, CreateOutsideRamRejected) {
  // The host picks the region. One whose end wraps past 2^64, or one over device
  // memory, is rejected before the policy reads it for the measurement.
  KernelBuilder kb(this->HostConfig());
  Assembler& a = kb.assembler();
  const uint64_t half = uint64_t{1} << 63;
  const uint64_t uart = this->profile.machine.map.uart_base;
  const std::pair<uint64_t, uint64_t> regions[] = {{half, half}, {uart, 4096}};
  for (unsigned i = 0; i < 2; ++i) {
    a.Li(a0, regions[i].first);
    a.Li(a1, regions[i].second);
    a.Li(a2, regions[i].first);
    this->EmitCall(a, this->abi.create);
    kb.EmitStoreResult(KernelSlots::kScratch + i);
  }
  kb.EmitFinish(/*pass=*/true);
  const Image payload = this->Payload([](Assembler&) {});
  System system = this->Boot(kb.Finish(), payload);
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  EXPECT_EQ(system.machine->finisher().exit_code(), 0u);
  for (unsigned i = 0; i < 2; ++i) {
    EXPECT_EQ(static_cast<int64_t>(system.ReadResult(KernelSlots::kScratch + i)),
              SbiError::kInvalidParam)
        << "region " << i;
  }
  EXPECT_FALSE(this->policy.live());
}

TYPED_TEST(DomainTest, HostCsrsSurviveRun) {
  // The domain owns its translation CSRs: a VS-mode domain writes its satp (vsatp),
  // a U-mode domain runs with translation off. Either way the host must read its own
  // values back after the run, and its delegation must be the firmware's again.
  const Image payload = this->Payload([&](Assembler& a) {
    if (this->abi.vs_mode) {
      a.Li(t0, 0x1234);
      a.Csrw(kCsrSatp, t0);
    }
  });
  std::vector<uint16_t> owned;
  for (const uint16_t csr : this->abi.translation_csrs) {
    if (csr != 0) {
      owned.push_back(csr);
    }
  }
  KernelConfig config = this->HostConfig();
  config.enable_paging = true;  // the host's own satp is live
  KernelBuilder kb(config);
  Assembler& a = kb.assembler();
  for (unsigned i = 0; i < owned.size(); ++i) {
    if (owned[i] != kCsrSatp) {  // the host's own satp keeps its page table
      a.Li(t0, 0x5678 + i);
      a.Csrw(owned[i], t0);
    }
    a.Csrr(a0, owned[i]);
    kb.EmitStoreResult(KernelSlots::kScratch + i);
  }
  this->EmitCreate(a, payload.entry);
  this->EmitRunUntilDone(a);
  for (unsigned i = 0; i < owned.size(); ++i) {
    a.Csrr(a0, owned[i]);
    kb.EmitStoreResult(KernelSlots::kScratch + 4 + i);
  }
  kb.EmitFinish(/*pass=*/true);
  System system = this->Boot(kb.Finish(), payload);
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  EXPECT_EQ(system.machine->finisher().exit_code(), 0u);
  for (unsigned i = 0; i < owned.size(); ++i) {
    const uint64_t before = system.ReadResult(KernelSlots::kScratch + i);
    EXPECT_NE(before, 0u) << CsrName(owned[i]);
    EXPECT_EQ(system.ReadResult(KernelSlots::kScratch + 4 + i), before) << CsrName(owned[i]);
  }
  EXPECT_EQ(system.machine->hart(0).csrs().Get(kCsrMedeleg),
            system.monitor->vctx(0).csrs().medeleg());
}

TYPED_TEST(DomainTest, SecondHartCannotRunARunningDomain) {
  // The domain has one context: while it runs on one hart, a run from another hart
  // is denied instead of entering it a second time. Whichever hart gets there first
  // runs it to its exit.
  constexpr uint64_t kExitValue = 0x600D;
  const Image payload = this->Payload([&](Assembler& a) {
    a.Li(s2, 200'000);
    a.Bind("spin");
    a.Addi(s2, s2, -1);
    a.Bnez(s2, "spin");
    a.Li(a0, kExitValue);
  });
  KernelBuilder kb(this->HostConfig(/*harts=*/2));
  Assembler& a = kb.assembler();
  this->EmitCreate(a, payload.entry);
  kb.EmitStartSecondaries();
  this->EmitRunUntilDone(a, "h0");
  kb.EmitStoreResult(KernelSlots::kScratch);
  kb.EmitWaitSlotAtLeast(KernelSlots::kScratch + 2, 1);
  kb.EmitFinish(/*pass=*/true);
  kb.DefineSecondaryMain();
  this->EmitRunUntilDone(a, "h1");
  kb.EmitStoreResult(KernelSlots::kScratch + 1);
  kb.EmitAtomicIncrement(KernelSlots::kScratch + 2);
  kb.EmitSecondaryPark();
  System system = this->Boot(kb.Finish(), payload, /*harts=*/2);
  ASSERT_TRUE(system.machine->RunUntilFinished(kBudget));
  EXPECT_EQ(system.machine->finisher().exit_code(), 0u);
  const int64_t hart0 = static_cast<int64_t>(system.ReadResult(KernelSlots::kScratch));
  const int64_t hart1 = static_cast<int64_t>(system.ReadResult(KernelSlots::kScratch + 1));
  EXPECT_TRUE((hart0 == kExitValue && hart1 == SbiError::kDenied) ||
              (hart0 == SbiError::kDenied && hart1 == kExitValue))
      << "hart 0: " << hart0 << ", hart 1: " << hart1;
  EXPECT_FALSE(this->policy.live());
}

}  // namespace
}  // namespace vfm
