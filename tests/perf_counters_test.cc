// Counter tests for two mechanisms the speed of a run rests on, asserted from
// deterministic counters rather than host time, so they hold on any host:
//   * the block engine (DESIGN.md §2f) runs a compute loop's instructions in blocks;
//   * a fleet run (DESIGN.md §2k) skips its machines' idle time instead of stepping
//     through it.
// Each fails when its mechanism is turned off. ctest gives this binary a timeout, so
// a regression that livelocks a fleet fails instead of hanging.

#include <gtest/gtest.h>

#include <numeric>

#include "src/fleet/fleet.h"
#include "src/kernel/kernel.h"
#include "src/platform/platform.h"

namespace vfm {
namespace {

TEST(BlockCounterTest, ComputeLoopRunsInBlocks) {
  const PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  KernelConfig config;
  config.base = profile.kernel_base;
  KernelBuilder kb(config);
  kb.EmitComputeLoop(20'000, 16);
  kb.EmitFinish(/*pass=*/true);
  System system = BootSystem(profile, DeployMode::kNative, kb.Finish());
  Machine& machine = *system.machine;
  const Hart& hart = machine.hart(0);

  // Boot: the firmware runs until it enters the kernel.
  const uint64_t kernel_entry = system.kernel.entry;
  ASSERT_TRUE(machine.RunUntil([&] { return hart.pc() == kernel_entry; }, 1'000'000));
  const uint64_t instret_before = hart.instret();
  const uint64_t blocks_before = hart.threaded_instrs();

  ASSERT_TRUE(machine.RunUntilFinished(10'000'000));
  const uint64_t retired = hart.instret() - instret_before;
  const uint64_t in_blocks = hart.threaded_instrs() - blocks_before;
  ASSERT_GT(retired, 500'000u);
  EXPECT_GE(static_cast<double>(in_blocks), 0.99 * static_cast<double>(retired))
      << in_blocks << " of " << retired << " instructions ran in blocks";
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
