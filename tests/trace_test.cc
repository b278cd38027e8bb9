// Deterministic record/replay (DESIGN.md §2j): trace wire-format rejection
// (truncated, corrupt, version-skewed, wrong machine config), record -> replay
// bit-identity for bare and monitored runs, replay across mid-run snapshot points,
// injected-divergence detection with exact (hart, retired, round) coordinates —
// identical on the serial and parallel quantum engines — and replay equality
// across the full lockstep tuning matrix.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/state.h"
#include "src/cosim/lockstep.h"
#include "src/cosim/program.h"
#include "src/kernel/kernel.h"
#include "src/platform/platform.h"
#include "src/sim/machine.h"
#include "src/trace/trace.h"

namespace vfm {
namespace {

// ---------------------------------------------------------------------------------
// A tiny single-hart machine running a counted loop, plus a canned recording of it:
// the unit fixture for format/rejection/divergence tests.

MachineConfig LoopConfig() {
  MachineConfig mc;
  mc.map.ram_size = 1 << 20;
  mc.tuning.decode_cache_entries = 16384;
  mc.tuning.superblock_entries = 2048;
  mc.tuning.tlb_entries = 4096;
  return mc;
}

std::unique_ptr<Machine> MakeLoopMachine(const MachineConfig& mc) {
  auto machine = std::make_unique<Machine>(mc);
  const uint64_t base = mc.map.ram_base;
  // loop: addi a0, a0, 1 ; bne a0, a1, loop ; store finish code ; j .
  const std::vector<uint32_t> code = {
      0x00150513,  // addi a0, a0, 1
      0xFEB51EE3,  // bne a0, a1, -4
      0x000017B7,  // lui a5, 0x1
      0x00879793,  // slli a5, a5, 8    -> finisher base 0x10'0000
      0x00005737,  // lui a4, 0x5
      0x55570713,  // addi a4, a4, 0x555
      0x00E7A023,  // sw a4, 0(a5)
      0x0000006F,  // j .
  };
  std::vector<uint8_t> image(code.size() * 4);
  std::memcpy(image.data(), code.data(), image.size());
  EXPECT_TRUE(machine->LoadImage(base, image));
  machine->hart(0).set_pc(base);
  machine->hart(0).set_gpr(11, 5'000);  // a1: loop bound
  return machine;
}

struct RecordedLoop {
  Snapshot anchor;
  std::vector<uint8_t> trace;
};

// Runs a loop machine partway, anchors a snapshot, and records the rest of the run
// (with injected UART/PLIC inputs) to completion.
RecordedLoop RecordLoopRun(const MachineConfig& mc, uint64_t hash_period = 64) {
  RecordedLoop rec;
  const std::unique_ptr<Machine> machine = MakeLoopMachine(mc);
  Machine::RunProgress progress;
  machine->RunUntilFinished(1'000, 4'000, &progress);
  EXPECT_FALSE(machine->finisher().finished());
  machine->SaveSnapshot(rec.anchor);
  EXPECT_TRUE(machine->StartRecording("", hash_period));
  machine->InjectUartInput("in");
  machine->InjectPlicLine(7, true);
  machine->RunUntilFinished(50'000);
  EXPECT_TRUE(machine->finisher().finished());
  machine->StopRecording(&rec.trace);
  return rec;
}

// ---------------------------------------------------------------------------------
// Wire-format rejection.

TEST(TraceFormatTest, TruncatedTraceRejected) {
  const RecordedLoop rec = RecordLoopRun(LoopConfig());
  ASSERT_GT(rec.trace.size(), 64u);

  // Chop the stream: the section framing no longer adds up.
  std::vector<uint8_t> cut(rec.trace.begin(), rec.trace.end() - 48);
  TraceReader truncated(cut);
  EXPECT_FALSE(truncated.ok());
  EXPECT_FALSE(truncated.error().empty());

  Machine machine(LoopConfig());
  const ReplayResult result = machine.ReplayFrom(rec.anchor, cut);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("trace rejected"), std::string::npos) << result.error;
}

TEST(TraceFormatTest, MissingEndEventIsTruncation) {
  // A structurally valid trace whose last event is not kEnd: rebuilt from a real
  // trace with the end event dropped. TraceReader must flag it.
  const RecordedLoop rec = RecordLoopRun(LoopConfig());
  TraceReader reader(rec.trace);
  ASSERT_TRUE(reader.ok()) << reader.error();
  TraceWriter writer;
  writer.Begin(reader.header());
  for (size_t i = 0; i + 1 < reader.events().size(); ++i) {
    writer.Append(reader.events()[i]);
  }
  const std::vector<uint8_t> cut = writer.Finish();
  TraceReader reread(cut);
  EXPECT_FALSE(reread.ok());
  EXPECT_NE(reread.error().find("truncated"), std::string::npos) << reread.error();
}

TEST(TraceFormatTest, VersionSkewRejected) {
  StateWriter writer;
  writer.BeginSection(StateTag("TRAC"), 99);  // a future format version
  writer.U64(0);
  writer.EndSection();
  TraceReader reader(writer.Take());
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("unsupported trace version 99"), std::string::npos)
      << reader.error();
}

TEST(TraceFormatTest, CorruptTraceRejected) {
  RecordedLoop rec = RecordLoopRun(LoopConfig());
  // Smash the length prefix of the header's fingerprint blob (right after the
  // 16-byte outer section header): the blob now claims to run past the stream.
  ASSERT_GT(rec.trace.size(), 32u);
  for (size_t i = 16; i < 24; ++i) {
    rec.trace[i] ^= 0xFF;
  }
  TraceReader reader(rec.trace);
  EXPECT_FALSE(reader.ok());
}

TEST(TraceFormatTest, ReplayRejectsTraceFromDifferentMachineConfig) {
  const RecordedLoop rec = RecordLoopRun(LoopConfig());
  MachineConfig other = LoopConfig();
  other.map.ram_size = 2 << 20;  // different config fingerprint
  Machine machine(other);
  const ReplayResult result = machine.ReplayFrom(rec.anchor, rec.trace);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("fingerprint"), std::string::npos) << result.error;
}

TEST(TraceFormatTest, TraceFileRoundTrip) {
  const RecordedLoop rec = RecordLoopRun(LoopConfig());
  const std::string path = ::testing::TempDir() + "/trace_roundtrip.trace";
  ASSERT_TRUE(WriteTraceFile(path, rec.trace));
  std::vector<uint8_t> back;
  ASSERT_TRUE(ReadTraceFile(path, &back));
  EXPECT_EQ(back, rec.trace);
}

// ---------------------------------------------------------------------------------
// Record -> replay bit-identity.

TEST(ReplayTest, RecordedLoopReplaysCleanly) {
  const MachineConfig mc = LoopConfig();
  const RecordedLoop rec = RecordLoopRun(mc);
  Machine machine(mc);
  const ReplayResult result = machine.ReplayFrom(rec.anchor, rec.trace);
  EXPECT_TRUE(result.ok) << DescribeReplay(result);
  EXPECT_GT(result.hashes_checked, 0u);   // the rolling verifier actually ran
  EXPECT_GT(result.events_applied, 0u);
  EXPECT_TRUE(machine.finisher().finished());
}

TEST(ReplayTest, ReplayVerifiesUartInputLandedInDeviceState) {
  // Replaying the same trace but suppressing one injected input must diverge on a
  // device-state hash: drop the kUartInput event from the stream and replay.
  const MachineConfig mc = LoopConfig();
  const RecordedLoop rec = RecordLoopRun(mc, /*hash_period=*/16);
  TraceReader reader(rec.trace);
  ASSERT_TRUE(reader.ok()) << reader.error();
  TraceWriter writer;
  writer.Begin(reader.header());
  for (const TraceEvent& event : reader.events()) {
    if (event.kind != TraceEventKind::kUartInput) {
      writer.Append(event);
    }
  }
  const std::vector<uint8_t> without_input = writer.Finish();

  Machine machine(mc);
  const ReplayResult result = machine.ReplayFrom(rec.anchor, without_input);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.diverged) << result.error;
  // The guest ignores the UART receive queue, so the divergence is the device slot:
  // reported as hart == hart_count().
  EXPECT_EQ(result.hart, machine.hart_count());
  EXPECT_NE(result.detail.find("device"), std::string::npos) << result.detail;
}

TEST(ReplayTest, ReplayAbortsWhileRecording) {
  const MachineConfig mc = LoopConfig();
  const RecordedLoop rec = RecordLoopRun(mc);
  Machine machine(mc);
  ASSERT_TRUE(machine.StartRecording(""));
  const ReplayResult result = machine.ReplayFrom(rec.anchor, rec.trace);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("recording"), std::string::npos) << result.error;
  machine.StopRecording();
}

// ---------------------------------------------------------------------------------
// Injected divergence: the verifier must report the exact first-divergence
// coordinate, and the same coordinate on the serial-quantum and parallel engines.

TEST(ReplayTest, InjectedDivergenceReportsFirstCheckpointCoordinate) {
  const MachineConfig mc = LoopConfig();
  const RecordedLoop rec = RecordLoopRun(mc, /*hash_period=*/32);

  // Find the first post-anchor state-hash checkpoint in the trace: a tampered
  // replay must be caught exactly there, on hart 0 (the tampered register feeds
  // the loop counter, so the hash differs at the first opportunity).
  TraceReader reader(rec.trace);
  ASSERT_TRUE(reader.ok()) << reader.error();
  const TraceEvent* first_hash = nullptr;
  for (const TraceEvent& event : reader.events()) {
    if (event.kind == TraceEventKind::kStateHash) {
      first_hash = &event;
      break;
    }
  }
  ASSERT_NE(first_hash, nullptr);

  Machine machine(mc);
  const ReplayResult result =
      machine.ReplayFrom(rec.anchor, rec.trace, [&machine] {
        machine.hart(0).set_gpr(10, machine.hart(0).gpr(10) + 1);
        return true;
      });
  EXPECT_FALSE(result.ok);
  ASSERT_TRUE(result.diverged) << result.error;
  EXPECT_EQ(result.hart, 0u);
  EXPECT_EQ(result.retired, first_hash->retired);
  EXPECT_EQ(result.round, first_hash->round);
}

TEST(ReplayTest, DivergenceCoordinateIdenticalOnQuantumAndParallel) {
  // Record a two-hart cosim program on the serial quantum schedule, then replay it
  // twice with the same injected tamper — once on the serial engine, once on the
  // parallel worker pool. Both must report the divergence at the same
  // (hart, retired, round). The program is long enough to still be running at the
  // anchor, so the parallel replay hands quanta to the pool before the divergence.
  GenOptions gen;
  gen.harts = 2;
  gen.num_actions = 160;
  gen.budget = 20'000;
  const CosimProgram program = GenerateProgram(/*seed=*/0x17ace, gen);
  const Result<Image> image = BuildCosimImage(program);
  ASSERT_TRUE(image.ok()) << image.error();

  const LockstepConfig* serial = FindLockstepConfig("superblock");
  const LockstepConfig* parallel = FindLockstepConfig("parallel");
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(parallel, nullptr);
  auto machine_config = [&](const LockstepConfig& c) {
    MachineConfig mc;
    mc.hart_count = 2;
    mc.isa.has_time_csr = true;
    mc.tuning = c.tuning;
    mc.map.ram_size = CosimLayout::kRamSize;
    return mc;
  };

  Machine recorder(machine_config(*serial));
  ASSERT_TRUE(recorder.LoadImage(image.value().base, image.value().bytes));
  Machine::RunProgress progress;
  recorder.RunUntilFinished(2'000, 8'000, &progress);
  Snapshot anchor;
  recorder.SaveSnapshot(anchor);
  ASSERT_TRUE(recorder.StartRecording("", /*hash_period_rounds=*/128));
  recorder.RunUntilFinished(gen.budget);
  std::vector<uint8_t> trace;
  recorder.StopRecording(&trace);

  ReplayResult results[2];
  const LockstepConfig* replay_configs[2] = {serial, parallel};
  for (int i = 0; i < 2; ++i) {
    Machine machine(machine_config(*replay_configs[i]));
    results[i] = machine.ReplayFrom(anchor, trace, [&machine] {
      machine.hart(1).set_gpr(10, machine.hart(1).gpr(10) ^ 0x40);
      return true;
    });
    SCOPED_TRACE(replay_configs[i]->name);
    EXPECT_FALSE(results[i].ok);
    EXPECT_TRUE(results[i].diverged) << results[i].error;
    if (replay_configs[i] == parallel) {
      EXPECT_GE(machine.pooled_quanta(), 1u);
    }
  }
  EXPECT_EQ(results[0].hart, results[1].hart);
  EXPECT_EQ(results[0].retired, results[1].retired);
  EXPECT_EQ(results[0].round, results[1].round);
  EXPECT_EQ(results[0].detail, results[1].detail);
}

// ---------------------------------------------------------------------------------
// Cosim integration: traced runs across the tuning matrix, mid-run snapshot points.

TEST(CosimTraceTest, TracedRunReplaysOnEveryTuning) {
  GenOptions gen;
  gen.num_actions = 96;
  gen.budget = 20'000;
  const CosimProgram program = GenerateProgram(/*seed=*/0x7ace1, gen);
  for (const LockstepConfig& config : LockstepConfigs()) {
    SCOPED_TRACE(config.name);
    const TracedRunResult traced =
        RunProgramTraced(program, config, config, /*trace_at=*/800);
    ASSERT_TRUE(traced.error.empty()) << traced.error;
    EXPECT_TRUE(traced.replay.ok) << DescribeReplay(traced.replay);
    EXPECT_GT(traced.replay.hashes_checked, 0u);
  }
}

TEST(CosimTraceTest, SingleHartTraceReplaysAcrossTunings) {
  // Tunings are documented as guest-transparent on single-hart programs, so a trace
  // recorded on the caches-off baseline must replay divergence-free on every other
  // tuning — including the rolling hash coordinates.
  GenOptions gen;
  gen.num_actions = 96;
  gen.budget = 20'000;
  const CosimProgram program = GenerateProgram(/*seed=*/0x5eed7, gen);
  const std::vector<LockstepConfig>& configs = LockstepConfigs();
  for (const LockstepConfig& config : configs) {
    SCOPED_TRACE(std::string(configs[0].name) + " -> " + config.name);
    const TracedRunResult traced =
        RunProgramTraced(program, configs[0], config, /*trace_at=*/800);
    ASSERT_TRUE(traced.error.empty()) << traced.error;
    EXPECT_TRUE(traced.replay.ok) << DescribeReplay(traced.replay);
  }
}

TEST(CosimTraceTest, TraceCarriesMidRunSnapshotPointAndInputs) {
  GenOptions gen;
  gen.num_actions = 96;
  gen.budget = 20'000;
  // Seed 0x4444 parks its hart in WFI without finishing, so the anchor lands
  // mid-program and both recorded run calls execute (the second one fast-forwards
  // through the idle stretch — replayed idle skips are part of what is verified).
  const CosimProgram program = GenerateProgram(/*seed=*/0x4444, gen);
  const LockstepConfig& config = *FindLockstepConfig("superblock");  // full caches
  const TracedRunResult traced =
      RunProgramTraced(program, config, config, /*trace_at=*/800);
  ASSERT_TRUE(traced.error.empty()) << traced.error;
  ASSERT_TRUE(traced.replay.ok) << DescribeReplay(traced.replay);

  TraceReader reader(traced.trace);
  ASSERT_TRUE(reader.ok()) << reader.error();
  unsigned snapshot_points = 0, uart_inputs = 0, plic_edges = 0, runs = 0;
  for (const TraceEvent& event : reader.events()) {
    switch (event.kind) {
      case TraceEventKind::kSnapshotPoint: ++snapshot_points; break;
      case TraceEventKind::kUartInput: ++uart_inputs; break;
      case TraceEventKind::kPlicLine: ++plic_edges; break;
      case TraceEventKind::kRun: ++runs; break;
      default: break;
    }
  }
  EXPECT_EQ(snapshot_points, 1u);  // the mid-recording SaveSnapshot
  EXPECT_EQ(uart_inputs, 2u);
  EXPECT_EQ(plic_edges, 2u);
  EXPECT_GE(runs, 2u);  // the run is split around the snapshot point
}

TEST(CosimTraceTest, TwoHartQuantumToParallelCrossReplay) {
  // Long enough that the replayed tail hands several quanta to the worker pool.
  GenOptions gen;
  gen.harts = 2;
  gen.num_actions = 160;
  gen.budget = 20'000;
  const CosimProgram program = GenerateProgram(/*seed=*/0xabc1, gen);
  const LockstepConfig* serial = FindLockstepConfig("superblock");
  const LockstepConfig* parallel = FindLockstepConfig("parallel");
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(parallel, nullptr);
  const TracedRunResult traced =
      RunProgramTraced(program, *serial, *parallel, /*trace_at=*/800);
  ASSERT_TRUE(traced.error.empty()) << traced.error;
  EXPECT_TRUE(traced.replay.ok) << DescribeReplay(traced.replay);
  EXPECT_GE(traced.replay_pooled_quanta, 1u);
}

TEST(CosimTraceTest, SeedFileCarriesTraceKey) {
  GenOptions gen;
  gen.trace_at = 1'900;
  CosimProgram program = GenerateProgram(/*seed=*/0x5e1f, gen);
  const std::string text = SaveSeedFile(program);
  EXPECT_NE(text.find("trace 1900"), std::string::npos) << text;
  const Result<CosimProgram> parsed = ParseSeedFile(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().opts.trace_at, 1'900u);
}

// ---------------------------------------------------------------------------------
// Monitored boot: record a run under the firmware monitor and replay it into a
// second booted system (machine snapshot + monitor state restored together).

TEST(MonitorTraceTest, MonitoredBootRecordsAndReplays) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  KernelConfig config;
  config.base = profile.kernel_base;
  config.timer_interval = 200;
  auto make_kernel = [&]() {
    KernelBuilder kb(config);
    kb.EmitPrint("trace kernel\n");
    kb.EmitSetTimerRelative(100);
    kb.EmitWaitSlotAtLeast(KernelSlots::kTimerTicks, 20);
    kb.EmitFinish(/*pass=*/true);
    return kb.Finish();
  };

  System a = BootSystem(profile, DeployMode::kMiralis, make_kernel());
  System b = BootSystem(profile, DeployMode::kMiralis, make_kernel());

  // Run system A partway, then anchor: machine snapshot + monitor state.
  Machine::RunProgress progress;
  a.machine->RunUntilFinished(30'000, 4 * 30'000, &progress);
  ASSERT_FALSE(a.machine->finisher().finished());
  Snapshot anchor;
  a.machine->SaveSnapshot(anchor);
  StateWriter writer;
  a.monitor->SaveState(writer);
  const std::vector<uint8_t> monitor_state = writer.Take();

  // Record the rest of the run to completion, with console input injected mid-way.
  ASSERT_TRUE(a.machine->StartRecording("", /*hash_period_rounds=*/4096));
  a.machine->InjectUartInput("k");
  ASSERT_TRUE(a.machine->RunUntilFinished(30'000'000));
  std::vector<uint8_t> trace;
  a.machine->StopRecording(&trace);

  // Replay on system B: the post-restore hook rewinds the monitor to the anchor.
  const ReplayResult result =
      b.machine->ReplayFrom(anchor, trace, [&b, &monitor_state] {
        StateReader reader(monitor_state);
        return b.monitor->LoadState(reader);
      });
  EXPECT_TRUE(result.ok) << DescribeReplay(result);
  EXPECT_GT(result.hashes_checked, 0u);
  EXPECT_TRUE(b.machine->finisher().finished());
  EXPECT_EQ(a.machine->uart().output(), b.machine->uart().output());
  EXPECT_EQ(a.machine->hart(0).instret(), b.machine->hart(0).instret());
  EXPECT_EQ(a.machine->hart(0).cycles(), b.machine->hart(0).cycles());
}

// ---------------------------------------------------------------------------------
// Snapshot files: the self-contained .snap artifact (config + state + RAM + aux).

TEST(SnapshotFileTest, RoundTripsConfigStateAndAux) {
  const MachineConfig mc = LoopConfig();
  const std::unique_ptr<Machine> machine = MakeLoopMachine(mc);
  machine->RunUntilFinished(500, 2'000, nullptr);
  Snapshot snapshot;
  machine->SaveSnapshot(snapshot);

  const std::string path = ::testing::TempDir() + "/trace_test.snap";
  const std::vector<uint8_t> aux = {1, 2, 3, 4};
  ASSERT_TRUE(WriteSnapshotFile(path, mc, snapshot, aux));

  MachineConfig config_back;
  Snapshot back;
  std::vector<uint8_t> aux_back;
  ASSERT_TRUE(ReadSnapshotFile(path, &config_back, &back, &aux_back));
  EXPECT_EQ(aux_back, aux);
  EXPECT_EQ(config_back.map.ram_size, mc.map.ram_size);
  EXPECT_EQ(config_back.tuning.superblock_entries, mc.tuning.superblock_entries);
  EXPECT_EQ(back.state, snapshot.state);

  // A machine rebuilt from the embedded config restores the snapshot and matches
  // the original machine's progress coordinate.
  Machine restored(config_back);
  ASSERT_TRUE(restored.RestoreSnapshot(back));
  EXPECT_EQ(restored.progress().retired, machine->progress().retired);
  EXPECT_EQ(restored.progress().rounds, machine->progress().rounds);
  EXPECT_EQ(restored.hart(0).pc(), machine->hart(0).pc());
}

// ---------------------------------------------------------------------------------
// Trace shrinking: ddmin over droppable input events.

TEST(TraceShrinkTest, DropsIrrelevantInputEvents) {
  const MachineConfig mc = LoopConfig();
  RecordedLoop rec;
  {
    const std::unique_ptr<Machine> machine = MakeLoopMachine(mc);
    Machine::RunProgress progress;
    machine->RunUntilFinished(1'000, 4'000, &progress);
    machine->SaveSnapshot(rec.anchor);
    EXPECT_TRUE(machine->StartRecording("", /*hash_period_rounds=*/64));
    // Lots of irrelevant input events, one relevant one (the tamper target below
    // cares about none of them — everything is droppable).
    for (int i = 0; i < 6; ++i) {
      machine->InjectUartInput(std::string(1, static_cast<char>('a' + i)));
    }
    machine->RunUntilFinished(50'000);
    machine->StopRecording(&rec.trace);
  }

  // "Still fails" = replay with a tampered start diverges. That holds regardless of
  // the input events, so the shrinker can drop all of them.
  auto still_fails = [&](const std::vector<uint8_t>& candidate) {
    Machine machine(mc);
    const ReplayResult result =
        machine.ReplayFrom(rec.anchor, candidate, [&machine] {
          machine.hart(0).set_gpr(10, machine.hart(0).gpr(10) + 1);
          return true;
        });
    return result.diverged;
  };
  const std::vector<uint8_t> shrunk = ShrinkTrace(rec.trace, still_fails);
  ASSERT_LT(shrunk.size(), rec.trace.size());
  TraceReader reader(shrunk);
  ASSERT_TRUE(reader.ok()) << reader.error();
  unsigned inputs = 0;
  for (const TraceEvent& event : reader.events()) {
    if (event.kind == TraceEventKind::kUartInput) {
      ++inputs;
    }
  }
  EXPECT_EQ(inputs, 0u);  // every droppable input was shed
  // The shrunk trace still reproduces the divergence.
  EXPECT_TRUE(still_fails(shrunk));
}

}  // namespace
}  // namespace vfm
