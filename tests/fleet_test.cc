// Tests for the machine-fleet executor (src/fleet, DESIGN.md §2k), the shared
// MachinePool, and the non-blocking scheduling hooks on Machine it leans on:
// IdleParked/NextDeadline/FastForwardIdleTo/RunSlice. The load-bearing claims:
// a slice-stepped machine is bit-identical to a blocking run, a sliced schedule
// records and replays, fleet aggregates are invariant under the worker count,
// and a skewed load actually rebalances through steals.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/fleet/fleet.h"
#include "src/platform/platform.h"
#include "src/sim/machine.h"
#include "src/sim/machine_pool.h"
#include "src/workloads/workloads.h"

namespace vfm {
namespace {

// A small fleet config the unit tests can run in a couple of seconds.
FleetConfig SmallConfig() {
  FleetConfig config;
  config.machines = 8;
  config.workers = 1;
  config.requests_per_machine = 4;
  config.mean_interarrival_ticks = 2000;
  return config;
}

std::string Byte(uint8_t value) { return std::string(1, static_cast<char>(value)); }

// ---------------------------------------------------------------------------------
// MachinePool: one boot per key, CoW forks after that.

TEST(MachinePoolTest, FactoryRunsOncePerKeyAndForksAfter) {
  MachineConfig mc;
  mc.map.ram_size = 1 << 20;
  MachinePool pool;
  int builds = 0;
  const MachinePool::Factory factory = [&builds, &mc] {
    ++builds;
    return std::make_unique<Machine>(mc);
  };

  Machine* tmpl = pool.TemplateFor("a", factory);
  ASSERT_NE(tmpl, nullptr);
  EXPECT_EQ(pool.TemplateFor("a", factory), tmpl);
  EXPECT_EQ(builds, 1);

  const std::unique_ptr<Machine> m1 = pool.Acquire("a", factory);
  const std::unique_ptr<Machine> m2 = pool.Acquire("a", factory);
  ASSERT_NE(m1, nullptr);
  ASSERT_NE(m2, nullptr);
  EXPECT_EQ(builds, 1);  // forked, not rebuilt
  EXPECT_EQ(pool.forks(), 2u);
  EXPECT_EQ(pool.size(), 1u);

  // Forks are independent machines, not views of the template.
  m1->hart(0).set_gpr(10, 111);
  m2->hart(0).set_gpr(10, 222);
  EXPECT_EQ(m1->hart(0).gpr(10), 111u);
  EXPECT_EQ(m2->hart(0).gpr(10), 222u);
  EXPECT_NE(tmpl->hart(0).gpr(10), 111u);

  pool.TemplateFor("b", factory);
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(pool.size(), 2u);
  pool.Clear();
  EXPECT_EQ(pool.size(), 0u);
}

// ---------------------------------------------------------------------------------
// The non-blocking scheduling hooks, against the real fleet-server guest.

TEST(SliceApiTest, BootedTemplateParksOnItsPollTimer) {
  FleetManager manager(SmallConfig());
  Machine* tmpl = manager.BootedTemplate();
  ASSERT_NE(tmpl, nullptr);
  EXPECT_TRUE(tmpl->IdleParked());

  uint64_t wake = 0;
  ASSERT_TRUE(tmpl->NextDeadline(&wake));
  EXPECT_GT(wake, tmpl->clint().mtime());

  // Fast-forwarding a fork to its own deadline consumes idle rounds and leaves
  // the timer edge pending (the machine is runnable again, not still parked).
  const std::unique_ptr<Machine> child = tmpl->Fork();
  const uint64_t before = child->clint().mtime();
  EXPECT_GT(child->FastForwardIdleTo(wake), 0u);
  EXPECT_GT(child->clint().mtime(), before);
  EXPECT_FALSE(child->IdleParked());

  // A target that is not in the future is a no-op.
  EXPECT_EQ(child->FastForwardIdleTo(0), 0u);
}

TEST(SliceApiTest, SliceLoopDrivesServerToCompletion) {
  FleetManager manager(SmallConfig());
  const std::unique_ptr<Machine> child = manager.BootedTemplate()->Fork();
  child->InjectUartInput(Byte(kFleetRequestByte));
  child->InjectUartInput(Byte(kFleetRequestByte));
  child->InjectUartInput(Byte(kFleetShutdownByte));

  bool finished = false;
  bool ever_idle = false;
  for (int i = 0; i < 10'000 && !finished; ++i) {
    const Machine::SliceResult r = child->RunSlice(5'000);
    finished = r.finished;
    if (finished) {
      break;
    }
    if (r.idle) {
      ever_idle = true;
      uint64_t wake = 0;
      ASSERT_TRUE(child->NextDeadline(&wake));
      child->FastForwardIdleTo(wake);
    }
  }
  EXPECT_TRUE(finished);
  EXPECT_TRUE(ever_idle);  // the poll server does park between requests

  uint64_t completed = 0;
  ASSERT_TRUE(child->bus().Read(manager.layout().completed_addr, 8, &completed));
  EXPECT_EQ(completed, 2u);
}

TEST(SliceApiTest, SliceSteppedRunMatchesBlockingRun) {
  // The §2h/§2j determinism invariant extended to slices: how the host chops a
  // run into RunSlice/FastForwardIdleTo turns must not change what the guest
  // computes — instret, cycle, mtime, and results all bit-equal.
  FleetManager manager(SmallConfig());
  Machine* tmpl = manager.BootedTemplate();
  const std::string input =
      Byte(kFleetRequestByte) + Byte(kFleetRequestByte) + Byte(kFleetShutdownByte);

  const std::unique_ptr<Machine> blocking = tmpl->Fork();
  blocking->InjectUartInput(input);
  ASSERT_TRUE(blocking->RunUntilFinished(50'000'000));

  const std::unique_ptr<Machine> sliced = tmpl->Fork();
  sliced->InjectUartInput(input);
  bool finished = false;
  for (int i = 0; i < 100'000 && !finished; ++i) {
    const Machine::SliceResult r = sliced->RunSlice(1'000);
    finished = r.finished;
    if (!finished && r.idle) {
      uint64_t wake = 0;
      ASSERT_TRUE(sliced->NextDeadline(&wake));
      sliced->FastForwardIdleTo(wake);
    }
  }
  ASSERT_TRUE(finished);

  EXPECT_EQ(sliced->total_instret(), blocking->total_instret());
  EXPECT_EQ(sliced->clint().mtime(), blocking->clint().mtime());
  EXPECT_EQ(sliced->hart(0).pc(), blocking->hart(0).pc());
  uint64_t completed_sliced = 0;
  uint64_t completed_blocking = 0;
  ASSERT_TRUE(sliced->bus().Read(manager.layout().completed_addr, 8, &completed_sliced));
  ASSERT_TRUE(
      blocking->bus().Read(manager.layout().completed_addr, 8, &completed_blocking));
  EXPECT_EQ(completed_sliced, completed_blocking);
  EXPECT_EQ(completed_sliced, 2u);
}

TEST(SliceApiTest, SliceScheduleRecordsAndReplays) {
  // RunSlice and FastForwardIdleTo are traced run events (§2j): a recorded
  // sliced schedule must replay cleanly on a fresh machine, through the
  // kRunSlice / kFastForwardIdleTo replay paths.
  FleetManager manager(SmallConfig());
  Machine* tmpl = manager.BootedTemplate();
  const std::unique_ptr<Machine> recorder = tmpl->Fork();

  Snapshot anchor;
  recorder->SaveSnapshot(anchor);
  ASSERT_TRUE(recorder->StartRecording("", /*hash_period_rounds=*/64));
  recorder->InjectUartInput(Byte(kFleetRequestByte));
  recorder->InjectUartInput(Byte(kFleetShutdownByte));
  bool finished = false;
  for (int i = 0; i < 10'000 && !finished; ++i) {
    const Machine::SliceResult r = recorder->RunSlice(2'000);
    finished = r.finished;
    if (!finished && r.idle) {
      uint64_t wake = 0;
      ASSERT_TRUE(recorder->NextDeadline(&wake));
      recorder->FastForwardIdleTo(wake);
    }
  }
  ASSERT_TRUE(finished);
  std::vector<uint8_t> trace;
  ASSERT_TRUE(recorder->StopRecording(&trace));

  const std::unique_ptr<Machine> replayer = tmpl->Fork();
  const ReplayResult result = replayer->ReplayFrom(anchor, trace);
  EXPECT_TRUE(result.ok) << DescribeReplay(result);
  EXPECT_GT(result.events_applied, 0u);
  EXPECT_TRUE(replayer->finisher().finished());
}

TEST(SliceApiTest, ServerKeepsFirmwareAndKernelCodeCached) {
  // Every request runs both firmware and kernel code, whose images sit at
  // 1 MiB-aligned bases 3 MiB apart. One server machine driven the way the fleet
  // drives it (open-loop arrivals, slices, idle fast-forward) must keep both
  // decoded and lowered (it misses the decode cache ~0.9 times and builds ~0.2
  // blocks per 1000 instructions; an index that maps the two images onto the same
  // slots reads ~28 and ~3.7). Deterministic counters only, no wall clock.
  constexpr uint64_t kRequests = 64;
  const FleetConfig config;
  FleetManager manager(config);
  const std::unique_ptr<Machine> m = manager.BootedTemplate()->Fork();
  const Hart& hart = m->hart(0);
  const uint64_t instret0 = hart.instret();
  uint64_t next_arrival = m->clint().mtime() + config.mean_interarrival_ticks;
  uint64_t injected = 0;
  uint64_t completed = 0;
  bool shutdown_sent = false;
  bool finished = false;
  for (int turn = 0; turn < 1'000'000 && !finished; ++turn) {
    for (; injected < kRequests && next_arrival <= m->clint().mtime(); ++injected) {
      m->InjectUartInput(Byte(kFleetRequestByte));
      next_arrival += config.mean_interarrival_ticks;
    }
    if (!shutdown_sent && completed == kRequests) {
      m->InjectUartInput(Byte(kFleetShutdownByte));
      shutdown_sent = true;
    }
    const Machine::SliceResult r = m->RunSlice(config.slice_instructions);
    ASSERT_TRUE(m->bus().Read(manager.layout().completed_addr, 8, &completed));
    finished = r.finished;
    if (!finished && r.idle) {
      uint64_t wake = next_arrival;
      m->NextDeadline(&wake);
      m->FastForwardIdleTo(wake);
    }
  }
  ASSERT_TRUE(finished);
  EXPECT_EQ(completed, kRequests);
  const double kinstr = static_cast<double>(hart.instret() - instret0) / 1000;
  EXPECT_LT(static_cast<double>(hart.decode_cache_misses()) / kinstr, 5.0);
  EXPECT_LT(static_cast<double>(hart.threaded_promotions()) / kinstr, 1.0);
  EXPECT_GT(hart.superblock_instrs(), 0u);
}

// ---------------------------------------------------------------------------------
// Fleet-level behavior.

TEST(FleetTest, SmallFleetCompletesAllRequests) {
  FleetManager manager(SmallConfig());
  const FleetStats stats = manager.Run();
  EXPECT_EQ(stats.machines, 8u);
  EXPECT_EQ(stats.finished, 8u);
  EXPECT_EQ(stats.stalled, 0u);
  EXPECT_EQ(stats.requests_injected, 32u);
  EXPECT_EQ(stats.requests_completed, 32u);
  EXPECT_EQ(stats.latencies_ticks.size(), 32u);
  EXPECT_GT(stats.total_retired, 0u);
  EXPECT_GT(stats.p50_us, 0.0);
  EXPECT_GE(stats.p99_us, stats.p50_us);
  EXPECT_GE(stats.p999_us, stats.p99_us);
}

TEST(FleetTest, AggregatesInvariantUnderWorkerCount) {
  // The tentpole determinism claim: worker count changes only host-time
  // interleaving, never guest-visible state, so the deterministic aggregates —
  // including the full latency multiset — are bit-equal for 1 and 4 workers.
  FleetConfig config = SmallConfig();
  config.workers = 1;
  FleetManager one(config);
  const FleetStats stats1 = one.Run();

  config.workers = 4;
  FleetManager four(config);
  const FleetStats stats4 = four.Run();

  EXPECT_EQ(stats1.DeterministicSignature(), stats4.DeterministicSignature());
  EXPECT_EQ(stats1.requests_completed, stats4.requests_completed);
  EXPECT_EQ(stats1.total_retired, stats4.total_retired);
  EXPECT_EQ(stats1.total_cycles, stats4.total_cycles);
  EXPECT_EQ(stats1.latencies_ticks, stats4.latencies_ticks);
}

TEST(FleetTest, RepeatedRunsOfOneManagerAreIdentical) {
  // Run() re-forks a fresh fleet from the same booted template each time, so
  // back-to-back runs (the bench's 1-worker vs N-worker legs) are comparable.
  FleetManager manager(SmallConfig());
  const FleetStats a = manager.Run();
  const FleetStats b = manager.Run();
  EXPECT_EQ(a.DeterministicSignature(), b.DeterministicSignature());
}

TEST(FleetTest, DifferentSeedsGiveDifferentSchedules) {
  FleetConfig config = SmallConfig();
  FleetManager a(config);
  config.seed = 99;
  FleetManager b(config);
  // Arrival schedules differ, so the latency multisets (and signatures) do too.
  EXPECT_NE(a.Run().DeterministicSignature(), b.Run().DeterministicSignature());
}

TEST(FleetTest, SkewedLoadRebalancesThroughSteals) {
  // Skewed closed-burst load: block distribution gives worker 0 two
  // always-runnable machines and worker 1 just one, so worker 1 finishes its
  // own block around the two-thirds mark and must steal from worker 0's deque
  // to keep retiring. Small slices keep the deque populated between turns.
  // Whether a given run steals is up to the host: when one worker thread starts
  // late, the other can steal its machine and finish everything first. So every
  // run checks only what the scheduler guarantees (all machines finish, none
  // stall, aggregates bit-equal), and the steal path must show up, with both
  // workers retiring, within a fixed number of runs.
  constexpr int kMaxRuns = 50;
  FleetConfig config = SmallConfig();
  config.machines = 3;
  config.workers = 2;
  config.requests_per_machine = 64;
  config.heavy_machines = 3;
  config.heavy_interarrival_ticks = 0;  // every machine closed-burst
  config.slice_instructions = 5'000;

  FleetManager manager(config);
  const uint64_t signature = manager.Run().DeterministicSignature();
  bool rebalanced = false;
  for (int run = 0; run < kMaxRuns && !rebalanced; ++run) {
    const FleetStats stats = manager.Run();
    EXPECT_EQ(stats.finished, 3u);
    EXPECT_EQ(stats.stalled, 0u);
    EXPECT_EQ(stats.DeterministicSignature(), signature);
    ASSERT_EQ(stats.worker_retired.size(), 2u);
    rebalanced = stats.steals > 0 && stats.worker_retired[0] > 0 && stats.worker_retired[1] > 0;
  }
  EXPECT_TRUE(rebalanced) << "no run of " << kMaxRuns
                          << " stole a machine with both workers retiring";
}

TEST(FleetTest, ClosedBurstFleetCompletes) {
  FleetConfig config = SmallConfig();
  config.mean_interarrival_ticks = 0;  // every request due at start
  FleetManager manager(config);
  const FleetStats stats = manager.Run();
  EXPECT_EQ(stats.finished, 8u);
  EXPECT_EQ(stats.requests_completed, 32u);
}

}  // namespace
}  // namespace vfm
