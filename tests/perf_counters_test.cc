// Counter tests for five mechanisms the speed of a run rests on, asserted from
// deterministic counters rather than host time, so they hold on any host:
//   * the block engine (DESIGN.md §2f) runs a compute loop's instructions in blocks;
//   * a loop stays in the block executor until its batch ends, paged or not, however
//     many blocks its body spans (§2f), also where a block was cut at a decode-cache
//     slot that another pc holds;
//   * a monitored single hart batches a compute loop as a native one does: its
//     batches end at timer edges, not at every mtime tick;
//   * a monitor world switch keeps the hart's decoded instructions and blocks
//     (DESIGN.md §2b, §2f): their validity keys on the PMP's contents, which
//     alternate between the two worlds' configurations;
//   * a fleet run (DESIGN.md §2k) skips its machines' idle time instead of stepping
//     through it.
// Each fails when its mechanism is turned off. ctest gives this binary a timeout, so
// a regression that livelocks a fleet fails instead of hanging.

#include <gtest/gtest.h>

#include <numeric>

#include "src/asm/assembler.h"
#include "src/fleet/fleet.h"
#include "src/kernel/kernel.h"
#include "src/platform/platform.h"
#include "src/workloads/workloads.h"

namespace vfm {
namespace {

// What a single-hart vf2-sim machine did in a loop, counted from kernel entry (the
// firmware's boot is left out).
struct ComputeLoopCounts {
  uint64_t retired = 0;
  uint64_t in_blocks = 0;   // instructions that ran in blocks
  uint64_t dispatches = 0;  // block dispatches (superblock_blocks)

  double DispatchesPerKinstr() const {
    return static_cast<double>(dispatches) / (static_cast<double>(retired) / 1000);
  }
};

// Boots a kernel whose main body is what `emit` appends, under `mode`, with the
// kernel's Sv39 identity map when `paging`, and runs it to its finish.
template <typename Emit>
ComputeLoopCounts RunLoop(DeployMode mode, bool paging, Emit emit) {
  const PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  KernelConfig config;
  config.base = profile.kernel_base;
  config.enable_paging = paging;
  KernelBuilder kb(config);
  emit(kb);
  kb.EmitFinish(/*pass=*/true);
  System system = BootSystem(profile, mode, kb.Finish());
  Machine& machine = *system.machine;
  const Hart& hart = machine.hart(0);

  // Boot: the firmware runs until it enters the kernel.
  const uint64_t kernel_entry = system.kernel.entry;
  EXPECT_TRUE(machine.RunUntil([&] { return hart.pc() == kernel_entry; }, 1'000'000));
  const uint64_t instret_before = hart.instret();
  const uint64_t in_blocks_before = hart.threaded_instrs();
  const uint64_t dispatches_before = hart.superblock_blocks();

  EXPECT_TRUE(machine.RunUntilFinished(10'000'000));
  ComputeLoopCounts counts;
  counts.retired = hart.instret() - instret_before;
  counts.in_blocks = hart.threaded_instrs() - in_blocks_before;
  counts.dispatches = hart.superblock_blocks() - dispatches_before;
  return counts;
}

// A 26-instruction compute loop: one block that branches back to its own head.
void EmitOneBlockLoop(KernelBuilder& kb) { kb.EmitComputeLoop(20'000, 16); }

ComputeLoopCounts RunComputeLoop(DeployMode mode) {
  return RunLoop(mode, /*paging=*/false, EmitOneBlockLoop);
}

TEST(BlockCounterTest, ComputeLoopRunsInBlocks) {
  const ComputeLoopCounts counts = RunComputeLoop(DeployMode::kNative);
  ASSERT_GT(counts.retired, 500'000u);
  EXPECT_GE(static_cast<double>(counts.in_blocks), 0.99 * static_cast<double>(counts.retired))
      << counts.in_blocks << " of " << counts.retired << " instructions ran in blocks";
}

TEST(BlockCounterTest, LoopsLeaveTheExecutorOnlyAtBatchEnds) {
  // A batch ends at a step budget (the 4096-instruction batch cap) or a timer edge.
  // In between, a loop runs in the executor: each block pass is bounded by steps,
  // not by its cycle charge, so a paged fetch's replayed walk does not end it, and a
  // pass continues into the next block, so a loop body of two blocks does not return
  // to RunBatch either. The batch's last pass stops at its prefix of the steps left;
  // when a paged access's walk surcharge reaches that prefix's static charge first,
  // the executor re-sets it and goes on. Measured: 0.244 and 0.257 dispatches per
  // kinstr for the two compute loops and 0.248 for the memory loop, in both modes
  // (the memory loop made 0.669 under Sv39 when a surcharged last pass ended the
  // dispatch). With the step budget counted as cycles the compute loops made 23.1
  // and 29.9 under Sv39, and without links the two-block loop made 20.6 bare.
  struct Loop {
    const char* name;
    double bound;
    void (*emit)(KernelBuilder&);
  };
  const Loop loops[] = {
      {"one self-looping block", 0.5, EmitOneBlockLoop},
      {"two blocks per iteration", 0.5,
       [](KernelBuilder& kb) { kb.EmitComputeLoop(5'000, 64); }},
      {"memory sweep", 1.0, [](KernelBuilder& kb) { kb.EmitMemoryLoop(8'000); }},
  };
  for (const Loop& loop : loops) {
    SCOPED_TRACE(loop.name);
    const ComputeLoopCounts bare = RunLoop(DeployMode::kNative, false, loop.emit);
    const ComputeLoopCounts paged = RunLoop(DeployMode::kNative, true, loop.emit);
    for (const ComputeLoopCounts* counts : {&bare, &paged}) {
      SCOPED_TRACE(counts == &bare ? "bare" : "Sv39");
      ASSERT_GT(counts->retired, 400'000u);
      EXPECT_LT(counts->DispatchesPerKinstr(), loop.bound)
          << counts->dispatches << " dispatches in " << counts->retired << " instructions";
    }
    // Sv39 within 10% of bare.
    EXPECT_LE(paged.DispatchesPerKinstr(), 1.1 * bare.DispatchesPerKinstr())
        << "Sv39 " << paged.dispatches << " dispatches in " << paged.retired
        << " instructions; bare " << bare.dispatches << " in " << bare.retired;
  }
}

TEST(BlockCounterTest, BlockCutAtAnEvictedSlotStillLinks) {
  // A loop runs through two pcs that share one decode-cache slot: `p`, in the loop
  // body, and `sub`, a routine the loop calls every other iteration (a 64-entry
  // cache maps pcs 256 bytes apart to one slot). The loop is entered at p, so the
  // block at p is built while p is decoded; the first call then evicts p before the
  // loop head's block is built, which cuts that block short at p (open_end). From
  // then on the block at p runs p, so nothing decodes p again, and the head's block
  // can never be extended; it must still link. Measured: 0.245 dispatches per
  // kinstr and no builds or decodes; 80.2 dispatches per kinstr when links refuse
  // an open-end block.
  MachineConfig config;
  config.tuning.decode_cache_entries = 64;
  Machine machine(config);
  Assembler a(config.map.ram_base);
  a.Li(s1, uint64_t{1} << 40);
  a.J("p");
  a.Align(256);
  a.Bind("loop");
  for (int i = 0; i < 4; ++i) {
    a.Addi(a0, a0, 1);
  }
  a.Bind("p");  // loop + 16
  for (int i = 0; i < 4; ++i) {
    a.Addi(a1, a1, 1);
  }
  a.Addi(s1, s1, -1);
  a.Andi(t0, s1, 1);
  a.Bnez(t0, "loop");
  a.Call("sub");
  a.J("loop");
  a.Align(256);
  for (int i = 0; i < 4; ++i) {
    a.Nop();  // never run: places sub at p's offset in the next 256 bytes
  }
  a.Bind("sub");
  a.Ret();
  const Image image = std::move(a.Finish()).value();
  ASSERT_TRUE(machine.LoadImage(image.base, image.bytes));
  Hart& hart = machine.hart(0);
  hart.set_pc(image.entry);

  EXPECT_FALSE(machine.RunUntilFinished(100'000));  // warm-up
  const uint64_t instret = hart.instret();
  const uint64_t dispatches = hart.superblock_blocks();
  const uint64_t builds = hart.threaded_promotions();
  const uint64_t misses = hart.decode_cache_misses();
  EXPECT_FALSE(machine.RunUntilFinished(1'000'000));
  const double kinstr = static_cast<double>(hart.instret() - instret) / 1000;
  ASSERT_GE(kinstr, 1000);
  EXPECT_LT(static_cast<double>(hart.superblock_blocks() - dispatches) / kinstr, 1.0)
      << hart.superblock_blocks() - dispatches << " dispatches in " << kinstr << " kinstr";
  EXPECT_EQ(hart.threaded_promotions(), builds);
  EXPECT_EQ(hart.decode_cache_misses(), misses);
}

TEST(MonitorCounterTest, MonitoredComputeLoopBatchesLikeNative) {
  // A monitored single hart reads exact time, so its batches run to the next timer
  // edge, as a native hart's do, instead of stopping at every mtime tick. Each stop
  // ends a block early, so the dispatch rate shows where batches end. Measured: 0.244
  // dispatches per kinstr natively and in both monitored modes; 6.67 in both
  // monitored modes when batches end at every tick. (With blocks bounded by cycles
  // and unlinked, these read 0.487 and 13.3.)
  const ComputeLoopCounts native = RunComputeLoop(DeployMode::kNative);
  ASSERT_GT(native.retired, 500'000u);
  for (const DeployMode mode : {DeployMode::kMiralis, DeployMode::kMiralisNoOffload}) {
    SCOPED_TRACE(DeployModeName(mode));
    const ComputeLoopCounts monitored = RunComputeLoop(mode);
    ASSERT_GT(monitored.retired, 500'000u);
    EXPECT_LE(monitored.DispatchesPerKinstr(), native.DispatchesPerKinstr() + 0.1)
        << monitored.dispatches << " dispatches in " << monitored.retired
        << " instructions; natively " << native.dispatches << " in " << native.retired;
  }
}

TEST(MonitorCounterTest, WorldSwitchesKeepDecodedCodeAndBlocks) {
  // Without offload every OS trap world-switches into the firmware, and each switch
  // reinstalls the physical PMP. The installs alternate between the two worlds'
  // contents, so after a warm-up both worlds' code stays decoded and built.
  const PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  WorkloadProfile redis = RedisProfile();
  redis.requests = 96;
  System system = BootSystem(profile, DeployMode::kMiralisNoOffload,
                             BuildWorkloadKernel(profile, redis));
  Machine& machine = *system.machine;
  const Hart& hart = machine.hart(0);
  ASSERT_FALSE(machine.RunUntilFinished(500'000));  // warm-up: about 25 requests
  const uint64_t instret = hart.instret();
  const uint64_t switches = system.monitor->stats().world_switches;
  const uint64_t misses = hart.decode_cache_misses();
  const uint64_t builds = hart.threaded_promotions();

  ASSERT_TRUE(machine.RunUntilFinished(50'000'000));
  ASSERT_EQ(machine.finisher().exit_code(), 0u);
  ASSERT_EQ(system.ReadResult(KernelSlots::kScratch), redis.requests);
  const double kinstr = static_cast<double>(hart.instret() - instret) / 1000;
  ASSERT_GT(kinstr, 1000);
  const auto per_kinstr = [kinstr](uint64_t count) { return static_cast<double>(count) / kinstr; };
  const double switches_per_kinstr = per_kinstr(system.monitor->stats().world_switches - switches);
  const double misses_per_kinstr = per_kinstr(hart.decode_cache_misses() - misses);
  const double builds_per_kinstr = per_kinstr(hart.threaded_promotions() - builds);
  EXPECT_GE(switches_per_kinstr, 0.2);
  EXPECT_LT(misses_per_kinstr, 2.0) << switches_per_kinstr << " world switches per kinstr";
  EXPECT_LT(builds_per_kinstr, 0.1) << switches_per_kinstr << " world switches per kinstr";
}

TEST(FleetCounterTest, IdleTimeIsSkippedNotStepped) {
  FleetConfig config;
  config.machines = 4;
  config.workers = 1;
  config.requests_per_machine = 8;
  config.mean_interarrival_ticks = 2000;
  config.slice_instructions = 5'000;
  FleetManager manager(config);
  const FleetStats stats = manager.Run();
  ASSERT_EQ(stats.finished, config.machines);
  ASSERT_EQ(stats.requests_completed, uint64_t{config.machines} * config.requests_per_machine);
  const uint64_t slices =
      std::accumulate(stats.worker_slices.begin(), stats.worker_slices.end(), uint64_t{0});
  // A slice steps at most 4 * slice_instructions rounds (RunSlice's default round
  // cap), so the simulated rounds beyond slices * cap were skipped by fast-forwarding
  // parked machines. The servers sit idle between requests most of the time: at
  // least half of the simulated rounds must have been skipped.
  const uint64_t steppable = slices * 4 * config.slice_instructions;
  EXPECT_GT(stats.total_rounds, 2 * steppable)
      << stats.total_rounds << " rounds in " << slices << " slices";
}

}  // namespace
}  // namespace vfm
