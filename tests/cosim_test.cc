// Tests for the lockstep co-simulation fuzzer (src/cosim, DESIGN.md §2e): generator
// and replay determinism, the lockstep engine's cross-configuration comparison, the
// ddmin shrinker, and the machine-level determinism property that seed replay rests
// on (two runs from the same configuration and image are observably identical).

#include <cstring>

#include <gtest/gtest.h>

#include "src/common/log.h"
#include "src/cosim/lockstep.h"
#include "src/cosim/program.h"
#include "src/isa/sbi.h"
#include "src/kernel/kernel.h"
#include "src/platform/platform.h"

namespace vfm {
namespace {

class CosimTest : public ::testing::Test {
 protected:
  CosimTest() { SetLogLevel(LogLevel::kError); }  // budget-exhausted runs are expected
};

TEST_F(CosimTest, GeneratorIsDeterministic) {
  GenOptions opts;
  const CosimProgram a = GenerateProgram(0xABCD, opts);
  const CosimProgram b = GenerateProgram(0xABCD, opts);
  ASSERT_EQ(a.actions.size(), b.actions.size());
  ASSERT_EQ(SaveSeedFile(a), SaveSeedFile(b));
  const Result<Image> ia = BuildCosimImage(a);
  const Result<Image> ib = BuildCosimImage(b);
  ASSERT_TRUE(ia.ok()) << ia.error();
  ASSERT_TRUE(ib.ok()) << ib.error();
  EXPECT_EQ(ia.value().bytes, ib.value().bytes);
  // A different seed produces a different program.
  const CosimProgram c = GenerateProgram(0xABCE, opts);
  const Result<Image> ic = BuildCosimImage(c);
  ASSERT_TRUE(ic.ok()) << ic.error();
  EXPECT_NE(ia.value().bytes, ic.value().bytes);
}

TEST_F(CosimTest, SeedFileRoundTrips) {
  GenOptions opts;
  opts.harts = 2;
  opts.num_actions = 48;
  opts.budget = 12'345;
  opts.trap_limit = 77;
  CosimProgram p = GenerateProgram(0x1234'5678'9ABC'DEF0ull, opts);
  p.keep = {1, 5, 9, 40};
  const Result<CosimProgram> r = ParseSeedFile(SaveSeedFile(p));
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().seed, p.seed);
  EXPECT_EQ(r.value().opts.harts, p.opts.harts);
  EXPECT_EQ(r.value().opts.num_actions, p.opts.num_actions);
  EXPECT_EQ(r.value().opts.budget, p.opts.budget);
  EXPECT_EQ(r.value().opts.trap_limit, p.opts.trap_limit);
  EXPECT_EQ(r.value().keep, p.keep);
  // The kept subset assembles to the identical image.
  const Result<Image> ia = BuildCosimImage(p);
  const Result<Image> ib = BuildCosimImage(r.value());
  ASSERT_TRUE(ia.ok() && ib.ok());
  EXPECT_EQ(ia.value().bytes, ib.value().bytes);

  EXPECT_FALSE(ParseSeedFile("not a seed file").ok());
  EXPECT_FALSE(ParseSeedFile("vfm-cosim v1\nbogus 3\n").ok());
}

// A 4-hart seed file replays (`cosim_fuzz --harts 4` saves them), and every
// secondary runs its own echo loop: the wake counter in a secondary's save area
// (gp+32) moves only once its own timer — the mtimecmp slot indexed by its mhartid —
// has woken it past its first WFI.
TEST_F(CosimTest, FourHartSeedFileReplaysAndWakesEverySecondary) {
  GenOptions opts;
  opts.harts = 4;
  const CosimProgram p = GenerateProgram(0x4018, opts);
  const std::string text = SaveSeedFile(p);
  const Result<CosimProgram> replay = ParseSeedFile(text);
  ASSERT_TRUE(replay.ok()) << replay.error();
  EXPECT_EQ(replay.value().opts.harts, 4u);
  std::string five = text;
  five.replace(five.find("harts 4"), 7, "harts 5");
  EXPECT_FALSE(ParseSeedFile(five).ok());

  const Result<Image> image = BuildCosimImage(replay.value());
  ASSERT_TRUE(image.ok()) << image.error();
  Machine machine(CosimMachineConfig(replay.value(), *FindLockstepConfig("superblock")));
  ASSERT_TRUE(machine.LoadImage(image.value().base, image.value().bytes));
  machine.RunUntilFinished(replay.value().opts.budget);
  for (unsigned hart = 2; hart < 4; ++hart) {
    uint64_t wakes = 0;
    ASSERT_TRUE(
        machine.bus().ReadBytes(CosimLayout::kSavePhys + 64 * hart + 32, &wakes, sizeof wakes));
    EXPECT_GT(wakes, 0u) << "hart " << hart << " never woke from its first WFI";
  }
  const CheckResult check = CheckProgram(replay.value());
  EXPECT_TRUE(check.ok) << check.detail;
}

// A bounded smoke of the real fuzzing loop: every program must behave identically
// across every lockstep configuration, and the aggregate run must
// actually exercise the machinery (programs finish, traps fire, the reference model
// check engages).
TEST_F(CosimTest, LockstepSmoke) {
  uint64_t finished = 0, total_traps = 0, ref_checks = 0, two_hart = 0;
  for (uint64_t seed = 100; seed < 112; ++seed) {
    GenOptions opts;
    opts.num_actions = 100;
    opts.harts = seed % 3 == 2 ? 2 : 1;
    two_hart += opts.harts == 2;
    const CosimProgram p = GenerateProgram(seed, opts);
    const CheckResult result = CheckProgram(p);
    EXPECT_TRUE(result.ok) << "seed " << seed << ": " << result.detail;
    const RunOutcome out =
        RunProgram(p, *FindLockstepConfig("nocache-notlb"), /*with_refmodel=*/true);
    finished += out.finished;
    total_traps += out.total_traps;
    ref_checks += out.ref_checks;
    if (out.finished) {
      EXPECT_TRUE(out.exit_code == kCosimExitDone || out.exit_code == kCosimExitTrapLimit)
          << "seed " << seed << " exit " << out.exit_code;
    }
  }
  EXPECT_GT(finished, 6u);      // most programs terminate via the finisher
  EXPECT_GT(total_traps, 100u); // the trap surface is actually exercised
  EXPECT_GT(ref_checks, 200u);  // the in-flight reference check engages
  EXPECT_GT(two_hart, 0u);
}

// Satellite: machine-level determinism. Two runs of the same program on the same
// configuration must be observably identical in every field the lockstep engine
// compares — final state, instret/cycle counts, trap trace, UART bytes, RAM hash.
// This is the property seed-file replay rests on.
TEST_F(CosimTest, IdenticalRunsAreObservablyIdentical) {
  for (const unsigned harts : {1u, 2u}) {
    GenOptions opts;
    opts.harts = harts;
    opts.num_actions = 120;
    const CosimProgram p = GenerateProgram(0xD5EED + harts, opts);
    for (const LockstepConfig& config : LockstepConfigs()) {
      const RunOutcome a = RunProgram(p, config, /*with_refmodel=*/false);
      const RunOutcome b = RunProgram(p, config, /*with_refmodel=*/false);
      ASSERT_TRUE(a.build_error.empty()) << a.build_error;
      EXPECT_EQ(CompareOutcomes(a, b), "") << config.name << " harts=" << harts;
      EXPECT_EQ(a.uart, b.uart);
      EXPECT_EQ(a.ram_hash, b.ram_hash);
    }
  }
}

// Satellite (full-system flavor): two boots of the identical monitor-under-kernel
// system produce identical MonitorStats, result slots, and console output.
TEST_F(CosimTest, BootedSystemIsDeterministic) {
  auto boot_once = [](MonitorStats* stats, std::string* uart, uint64_t* result) {
    PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
    KernelConfig config;
    config.base = profile.kernel_base;
    KernelBuilder kb(config);
    Assembler& a = kb.assembler();
    a.Li(a7, SbiExt::kBase);
    a.Li(a6, SbiFunc::kGetSpecVersion);
    a.Ecall();
    kb.EmitStoreResult(KernelSlots::kScratch);
    kb.EmitFinish(/*pass=*/true);
    System system = BootSystem(profile, DeployMode::kMiralis, kb.Finish());
    ASSERT_TRUE(system.machine->RunUntilFinished(30'000'000));
    *stats = system.monitor->stats();
    *uart = system.machine->uart().output();
    *result = system.ReadResult(KernelSlots::kScratch);
  };
  MonitorStats s1, s2;
  std::string u1, u2;
  uint64_t r1 = 0, r2 = 1;
  boot_once(&s1, &u1, &r1);
  boot_once(&s2, &u2, &r2);
  EXPECT_EQ(u1, u2);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(s1.os_traps, s2.os_traps);
  EXPECT_EQ(s1.firmware_traps, s2.firmware_traps);
  EXPECT_EQ(s1.emulated_instrs, s2.emulated_instrs);
  EXPECT_EQ(s1.world_switches, s2.world_switches);
  EXPECT_EQ(s1.injected_interrupts, s2.injected_interrupts);
  EXPECT_EQ(s1.mmio_emulations, s2.mmio_emulations);
  EXPECT_EQ(s1.mprv_emulations, s2.mprv_emulations);
  EXPECT_EQ(s1.fastpath_hits, s2.fastpath_hits);
  EXPECT_EQ(0, std::memcmp(s1.os_traps_by_cause, s2.os_traps_by_cause,
                           sizeof(s1.os_traps_by_cause)));
}

// The shrinker must find the minimal failing subset without knowing its shape. The
// synthetic failure predicate needs two specific actions to both be present.
TEST_F(CosimTest, ShrinkerFindsMinimalPair) {
  GenOptions opts;
  opts.num_actions = 160;
  const CosimProgram p = GenerateProgram(0x5817, opts);
  auto needs_pair = [](const CosimProgram& candidate) {
    bool has17 = false, has42 = false;
    for (uint32_t idx : candidate.keep) {
      has17 = has17 || idx == 17;
      has42 = has42 || idx == 42;
    }
    return has17 && has42;
  };
  const CosimProgram minimal = ShrinkProgram(p, needs_pair, /*max_runs=*/2000);
  EXPECT_EQ(minimal.keep, (std::vector<uint32_t>{17, 42}));
  // The shrunk program still assembles and replays cleanly end to end.
  const Result<CosimProgram> replay = ParseSeedFile(SaveSeedFile(minimal));
  ASSERT_TRUE(replay.ok()) << replay.error();
  const CheckResult check = CheckProgram(replay.value());
  EXPECT_TRUE(check.ok) << check.detail;
}

// Replay equivalence: parsing a saved seed file reproduces bit-identical outcomes.
TEST_F(CosimTest, ReplayReproducesOutcome) {
  GenOptions opts;
  opts.num_actions = 80;
  const CosimProgram p = GenerateProgram(0xFEED, opts);
  const Result<CosimProgram> replay = ParseSeedFile(SaveSeedFile(p));
  ASSERT_TRUE(replay.ok()) << replay.error();
  const LockstepConfig& config = *FindLockstepConfig("tiny-dcache-tlb");
  const RunOutcome a = RunProgram(p, config, /*with_refmodel=*/false);
  const RunOutcome b = RunProgram(replay.value(), config, /*with_refmodel=*/false);
  EXPECT_EQ(CompareOutcomes(a, b), "");
}

}  // namespace
}  // namespace vfm
