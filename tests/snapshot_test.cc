// Whole-machine snapshot, CoW fork, and the uniform device-state API (DESIGN.md
// §2h): StateWriter/StateReader wire-format units, per-device round trips, machine
// round trips across the full cosim tuning matrix (a split save/restore run must be
// bit-identical to an uninterrupted one), fork divergence, and monitored-system
// save/restore.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/state.h"
#include "src/cosim/lockstep.h"
#include "src/cosim/program.h"
#include "src/dev/blockdev.h"
#include "src/dev/clint.h"
#include "src/dev/plic.h"
#include "src/dev/uart.h"
#include "src/kernel/kernel.h"
#include "src/platform/platform.h"
#include "src/sim/machine.h"
#include "src/trace/trace.h"

namespace vfm {
namespace {

// ---------------------------------------------------------------------------------
// StateWriter / StateReader wire format.

TEST(StateStreamTest, PrimitivesRoundTrip) {
  StateWriter writer;
  writer.BeginSection(StateTag("TEST"), 3);
  writer.U8(0xAB);
  writer.U16(0x1234);
  writer.U32(0xDEADBEEF);
  writer.U64(0x0102030405060708ull);
  writer.Bool(true);
  writer.Str("hello");
  writer.EndSection();
  const std::vector<uint8_t> bytes = writer.Take();

  StateReader reader(bytes);
  EXPECT_EQ(reader.BeginSection(StateTag("TEST")), 3u);
  EXPECT_EQ(reader.U8(), 0xABu);
  EXPECT_EQ(reader.U16(), 0x1234u);
  EXPECT_EQ(reader.U32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.U64(), 0x0102030405060708ull);
  EXPECT_TRUE(reader.Bool());
  EXPECT_EQ(reader.Str(), "hello");
  EXPECT_FALSE(reader.SectionBytesRemain());
  reader.EndSection();
  EXPECT_TRUE(reader.ok());
}

TEST(StateStreamTest, NestedSectionsAndForwardCompatSkip) {
  // A version-2 writer appends an extra field; a version-1 reader consumes only the
  // fields it knows and EndSection skips the remainder, leaving the following
  // section readable.
  StateWriter writer;
  writer.BeginSection(StateTag("OUTR"), 1);
  writer.BeginSection(StateTag("INNR"), 2);
  writer.U64(42);
  writer.U64(99);  // the "new in v2" field
  writer.EndSection();
  writer.U32(7);
  writer.EndSection();
  const std::vector<uint8_t> bytes = writer.Take();

  StateReader reader(bytes);
  reader.BeginSection(StateTag("OUTR"));
  EXPECT_EQ(reader.BeginSection(StateTag("INNR")), 2u);
  EXPECT_EQ(reader.U64(), 42u);
  EXPECT_TRUE(reader.SectionBytesRemain());
  reader.EndSection();  // skips the unread v2 field
  EXPECT_EQ(reader.U32(), 7u);
  reader.EndSection();
  EXPECT_TRUE(reader.ok());
}

TEST(StateStreamTest, TagMismatchIsStickyError) {
  StateWriter writer;
  writer.BeginSection(StateTag("AAAA"), 1);
  writer.U64(1);
  writer.EndSection();
  const std::vector<uint8_t> bytes = writer.Take();

  StateReader reader(bytes);
  reader.BeginSection(StateTag("BBBB"));
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(reader.error().empty());
  // All subsequent reads return zeros instead of touching the stream.
  EXPECT_EQ(reader.U64(), 0u);
  EXPECT_EQ(reader.U8(), 0u);
}

TEST(StateStreamTest, TruncatedStreamFails) {
  StateWriter writer;
  writer.BeginSection(StateTag("TRNC"), 1);
  writer.U64(0x1122334455667788ull);
  writer.EndSection();
  std::vector<uint8_t> bytes = writer.Take();
  bytes.resize(bytes.size() - 4);  // chop the payload

  StateReader reader(bytes.data(), bytes.size());
  reader.BeginSection(StateTag("TRNC"));
  (void)reader.U64();
  EXPECT_FALSE(reader.ok());
}

TEST(StateStreamTest, BlobOverrunFails) {
  // A blob whose length prefix exceeds the surrounding section must fail cleanly,
  // not allocate unbounded memory.
  StateWriter writer;
  writer.BeginSection(StateTag("BLOB"), 1);
  writer.U64(~uint64_t{0});  // absurd length prefix, no data behind it
  writer.EndSection();
  const std::vector<uint8_t> bytes = writer.Take();

  StateReader reader(bytes);
  reader.BeginSection(StateTag("BLOB"));
  std::vector<uint8_t> out;
  reader.Bytes(&out);
  EXPECT_FALSE(reader.ok());
  EXPECT_TRUE(out.empty());
}

TEST(StateStreamTest, SkipUnknownTrailingSection) {
  StateWriter writer;
  writer.BeginSection(StateTag("KNWN"), 1);
  writer.U32(5);
  writer.EndSection();
  writer.BeginSection(StateTag("UNKN"), 1);
  writer.U64(0xFFFF);
  writer.EndSection();
  writer.BeginSection(StateTag("MORE"), 1);
  writer.U32(6);
  writer.EndSection();
  const std::vector<uint8_t> bytes = writer.Take();

  StateReader reader(bytes);
  reader.BeginSection(StateTag("KNWN"));
  EXPECT_EQ(reader.U32(), 5u);
  reader.EndSection();
  EXPECT_EQ(reader.PeekTag(), StateTag("UNKN"));
  reader.SkipSection();
  reader.BeginSection(StateTag("MORE"));
  EXPECT_EQ(reader.U32(), 6u);
  reader.EndSection();
  EXPECT_TRUE(reader.ok());
}

// ---------------------------------------------------------------------------------
// Per-device round trips through the uniform MmioDevice state API.

TEST(DeviceStateTest, ClintRoundTrip) {
  Clint a(2);
  a.set_mtime(123456);
  a.set_mtimecmp(0, 777);
  a.set_mtimecmp(1, 888);
  a.set_msip(1, true);

  StateWriter writer;
  a.SaveState(writer);
  const std::vector<uint8_t> bytes = writer.Take();

  Clint b(2);
  StateReader reader(bytes);
  ASSERT_TRUE(b.LoadState(reader));
  EXPECT_EQ(b.mtime(), 123456u);
  EXPECT_EQ(b.mtimecmp(0), 777u);
  EXPECT_EQ(b.mtimecmp(1), 888u);
  EXPECT_FALSE(b.msip(0));
  EXPECT_TRUE(b.msip(1));
}

TEST(DeviceStateTest, ClintHartCountMismatchRejected) {
  Clint a(2);
  StateWriter writer;
  a.SaveState(writer);
  const std::vector<uint8_t> bytes = writer.Take();

  Clint b(4);
  StateReader reader(bytes);
  EXPECT_FALSE(b.LoadState(reader));
}

TEST(DeviceStateTest, PlicRoundTripPreservesClaimableState) {
  Plic a(2);
  // Program priority + enable through MMIO (the architectural surface), then raise.
  EXPECT_TRUE(a.MmioWrite(0x0000 + 4 * 5, 4, 1));   // priority[5] = 1
  EXPECT_TRUE(a.MmioWrite(0x2000, 4, 1u << 5));     // hart 0 enable source 5
  a.RaiseSource(5);
  ASSERT_TRUE(a.SeipPending(0));

  StateWriter writer;
  a.SaveState(writer);
  const std::vector<uint8_t> bytes = writer.Take();

  Plic b(2);
  StateReader reader(bytes);
  ASSERT_TRUE(b.LoadState(reader));
  EXPECT_TRUE(b.SeipPending(0));   // pending + enable + priority all restored
  EXPECT_FALSE(b.SeipPending(1));
  // Claim on the restored device behaves exactly like on the original.
  uint64_t claim = 0;
  EXPECT_TRUE(b.MmioRead(0x200004, 4, &claim));
  EXPECT_EQ(claim, 5u);
}

TEST(DeviceStateTest, UartRoundTripKeepsOutputAndInputQueue) {
  Uart a;
  EXPECT_TRUE(a.MmioWrite(Uart::kDataOffset, 1, 'h'));
  EXPECT_TRUE(a.MmioWrite(Uart::kDataOffset, 1, 'i'));
  a.PushInput("xy");

  StateWriter writer;
  a.SaveState(writer);
  const std::vector<uint8_t> bytes = writer.Take();

  Uart b;
  StateReader reader(bytes);
  ASSERT_TRUE(b.LoadState(reader));
  EXPECT_EQ(b.output(), "hi");
  uint64_t value = 0;
  EXPECT_TRUE(b.MmioRead(Uart::kDataOffset, 1, &value));
  EXPECT_EQ(value, 'x');
  EXPECT_TRUE(b.MmioRead(Uart::kDataOffset, 1, &value));
  EXPECT_EQ(value, 'y');
  EXPECT_FALSE(b.has_input());
}

TEST(DeviceStateTest, BlockDevRoundTripPreservesDiskContents) {
  Bus bus;
  bus.AddRam(0x8000'0000, 0x10000);
  Plic plic(1);
  BlockDev a(&bus, &plic, 1, /*capacity_sectors=*/64, /*latency_ticks=*/5,
             /*ticks_per_sector=*/1);

  // DMA-write a recognizable sector from RAM onto disk A.
  std::vector<uint8_t> sector(BlockDev::kSectorSize, 0x5A);
  ASSERT_TRUE(bus.WriteBytes(0x8000'1000, sector.data(), sector.size()));
  ASSERT_TRUE(a.MmioWrite(BlockDev::kRegLba, 8, 3));
  ASSERT_TRUE(a.MmioWrite(BlockDev::kRegCount, 8, 1));
  ASSERT_TRUE(a.MmioWrite(BlockDev::kRegDmaAddr, 8, 0x8000'1000));
  ASSERT_TRUE(a.MmioWrite(BlockDev::kRegCmd, 8, BlockDev::kCmdWrite));
  a.Tick(1000);  // past the deadline: command completes
  ASSERT_EQ(a.completed_commands(), 1u);

  StateWriter writer;
  a.SaveState(writer);
  const std::vector<uint8_t> bytes = writer.Take();

  BlockDev b(&bus, &plic, 1, 64, 5, 1);
  StateReader reader(bytes);
  ASSERT_TRUE(b.LoadState(reader));
  EXPECT_EQ(b.completed_commands(), 1u);

  // DMA-read the sector back through device B into a different RAM buffer.
  ASSERT_TRUE(b.MmioWrite(BlockDev::kRegLba, 8, 3));
  ASSERT_TRUE(b.MmioWrite(BlockDev::kRegCount, 8, 1));
  ASSERT_TRUE(b.MmioWrite(BlockDev::kRegDmaAddr, 8, 0x8000'2000));
  ASSERT_TRUE(b.MmioWrite(BlockDev::kRegCmd, 8, BlockDev::kCmdRead));
  b.Tick(2000);
  std::vector<uint8_t> readback(BlockDev::kSectorSize, 0);
  ASSERT_TRUE(bus.ReadBytes(0x8000'2000, readback.data(), readback.size()));
  EXPECT_EQ(readback, sector);
}

TEST(DeviceStateTest, FinisherRoundTrip) {
  MachineConfig mc;
  mc.map.ram_size = 1 << 20;
  Machine machine(mc);
  ASSERT_TRUE(machine.bus().Write(mc.map.finisher_base, 4, Finisher::kFinishPass));
  ASSERT_TRUE(machine.finisher().finished());

  StateWriter writer;
  machine.finisher().SaveState(writer);
  const std::vector<uint8_t> bytes = writer.Take();

  Finisher fresh;
  StateReader reader(bytes);
  ASSERT_TRUE(fresh.LoadState(reader));
  EXPECT_TRUE(fresh.finished());
  EXPECT_EQ(fresh.exit_code(), machine.finisher().exit_code());
}

// ---------------------------------------------------------------------------------
// Machine-level round trips: split runs vs uninterrupted runs, across the full
// lockstep tuning matrix (the acceptance criterion of DESIGN.md §2h).

TEST(SnapshotRoundTripTest, SplitRunMatchesUninterruptedAcrossAllTunings) {
  GenOptions gen;
  gen.num_actions = 96;
  gen.budget = 20'000;
  CosimProgram program = GenerateProgram(/*seed=*/0x5eed5, gen);
  for (const LockstepConfig& config : LockstepConfigs()) {
    SCOPED_TRACE(config.name);
    const RunOutcome whole = RunProgram(program, config, /*with_refmodel=*/false);
    ASSERT_TRUE(whole.build_error.empty()) << whole.build_error;
    const RunOutcome split = RunProgramSplit(program, config, /*snapshot_at=*/5'000);
    ASSERT_TRUE(split.build_error.empty()) << split.build_error;
    EXPECT_EQ(CompareOutcomes(whole, split), "");
  }
}

TEST(SnapshotRoundTripTest, TwoHartProgramRoundTrips) {
  GenOptions gen;
  gen.harts = 2;
  gen.num_actions = 96;
  gen.budget = 20'000;
  CosimProgram program = GenerateProgram(/*seed=*/0xabc1, gen);
  const LockstepConfig& config = *FindLockstepConfig("superblock");  // full caches
  const RunOutcome whole = RunProgram(program, config, /*with_refmodel=*/false);
  ASSERT_TRUE(whole.build_error.empty()) << whole.build_error;
  const RunOutcome split = RunProgramSplit(program, config, /*snapshot_at=*/4'000);
  ASSERT_TRUE(split.build_error.empty()) << split.build_error;
  EXPECT_EQ(CompareOutcomes(whole, split), "");
}

TEST(SnapshotRoundTripTest, RestoreRejectsMismatchedConfig) {
  MachineConfig mc;
  mc.map.ram_size = 1 << 20;
  Machine a(mc);
  Snapshot snapshot;
  a.SaveSnapshot(snapshot);

  MachineConfig other = mc;
  other.map.ram_size = 2 << 20;  // different fingerprint
  Machine b(other);
  EXPECT_FALSE(b.RestoreSnapshot(snapshot));
}

TEST(SnapshotRoundTripTest, RestoreRejectsCorruptStream) {
  MachineConfig mc;
  mc.map.ram_size = 1 << 20;
  Machine a(mc);
  Snapshot snapshot;
  a.SaveSnapshot(snapshot);
  snapshot.state.resize(snapshot.state.size() / 2);  // truncate

  Machine b(mc);
  EXPECT_FALSE(b.RestoreSnapshot(snapshot));
}

TEST(SnapshotRoundTripTest, RepeatedSaveOfQuiescentMachineReusesImages) {
  MachineConfig mc;
  mc.map.ram_size = 1 << 20;
  Machine machine(mc);
  Snapshot s1;
  machine.SaveSnapshot(s1);
  Snapshot s2;
  machine.SaveSnapshot(s2);
  // No store ran between the saves, so the CoW images are literally shared.
  ASSERT_EQ(s1.ram.size(), s2.ram.size());
  for (size_t i = 0; i < s1.ram.size(); ++i) {
    EXPECT_EQ(s1.ram[i].get(), s2.ram[i].get());
  }
}

// ---------------------------------------------------------------------------------
// Fork: copy-on-write isolation between parent and child.

TEST(ForkTest, ParentAndChildDivergeWithoutBleedThrough) {
  MachineConfig mc;
  mc.map.ram_size = 1 << 20;
  Machine parent(mc);
  const uint64_t addr = mc.map.ram_base + 0x4000;
  ASSERT_TRUE(parent.bus().Write(addr, 8, 0x1111'2222'3333'4444ull));
  parent.hart(0).set_gpr(10, 0xCAFE);

  std::unique_ptr<Machine> child = parent.Fork();

  // The child starts as an exact clone.
  uint64_t value = 0;
  ASSERT_TRUE(child->bus().Read(addr, 8, &value));
  EXPECT_EQ(value, 0x1111'2222'3333'4444ull);
  EXPECT_EQ(child->hart(0).gpr(10), 0xCAFEu);

  // Post-fork writes stay on their side — RAM and architectural state alike.
  ASSERT_TRUE(parent.bus().Write(addr, 8, 0xAAAA'AAAA'AAAA'AAAAull));
  ASSERT_TRUE(child->bus().Write(addr, 8, 0xBBBB'BBBB'BBBB'BBBBull));
  parent.hart(0).set_gpr(10, 1);
  child->hart(0).set_gpr(10, 2);

  ASSERT_TRUE(parent.bus().Read(addr, 8, &value));
  EXPECT_EQ(value, 0xAAAA'AAAA'AAAA'AAAAull);
  ASSERT_TRUE(child->bus().Read(addr, 8, &value));
  EXPECT_EQ(value, 0xBBBB'BBBB'BBBB'BBBBull);
  EXPECT_EQ(parent.hart(0).gpr(10), 1u);
  EXPECT_EQ(child->hart(0).gpr(10), 2u);
}

TEST(ForkTest, ForkedChildrenRunDifferentProgramsIndependently) {
  // Two children forked from one parent run two different generated programs; each
  // must produce exactly the outcome a fresh machine produces for its program.
  GenOptions gen;
  gen.num_actions = 64;
  gen.budget = 10'000;
  const CosimProgram prog_a = GenerateProgram(101, gen);
  const CosimProgram prog_b = GenerateProgram(202, gen);
  const LockstepConfig& config = *FindLockstepConfig("superblock");

  const RunOutcome fresh_a = RunProgram(prog_a, config, /*with_refmodel=*/false);
  const RunOutcome fresh_b = RunProgram(prog_b, config, /*with_refmodel=*/false);

  SetForkPoolEnabled(true);
  const RunOutcome forked_a = RunProgram(prog_a, config, /*with_refmodel=*/false);
  const RunOutcome forked_b = RunProgram(prog_b, config, /*with_refmodel=*/false);
  SetForkPoolEnabled(false);

  EXPECT_EQ(CompareOutcomes(fresh_a, forked_a), "");
  EXPECT_EQ(CompareOutcomes(fresh_b, forked_b), "");
}

// ---------------------------------------------------------------------------------
// Restore-then-self-modify: a store to an executed page right after RestoreSnapshot
// must invalidate whatever the restored machine's caches think they know (the
// generation-bump-on-load invariant).

TEST(SnapshotRoundTripTest, RestoreThenSelfModifyTakesEffect) {
  MachineConfig mc;
  mc.map.ram_size = 1 << 20;
  mc.tuning.decode_cache_entries = 16384;
  mc.tuning.superblock_entries = 2048;
  mc.tuning.tlb_entries = 4096;

  // A tiny program: a counted loop that runs as a lowered block, then finish.
  //   loop: addi a0, a0, 1 ; bne a0, a1, loop ; <finish store>
  const uint64_t base = mc.map.ram_base;
  Machine machine(mc);
  const std::vector<uint32_t> code = {
      0x00150513,  // addi a0, a0, 1
      0xFEB51EE3,  // bne a0, a1, -4
      0x000017B7,  // lui a5, 0x1       (finisher base 0x10'0000 via lui+slli)
      0x00879793,  // slli a5, a5, 8    -> 0x10'0000
      0x00005737,  // lui a4, 0x5
      0x55570713,  // addi a4, a4, 0x555 -> 0x5555
      0x00E7A023,  // sw a4, 0(a5)
      0x0000006F,  // j .
  };
  std::vector<uint8_t> image(code.size() * 4);
  std::memcpy(image.data(), code.data(), image.size());
  ASSERT_TRUE(machine.LoadImage(base, image));
  machine.hart(0).set_pc(base);
  machine.hart(0).set_gpr(11, 50);  // a1: loop bound

  // Run the loop hot so every tier caches the branch, then snapshot mid-loop.
  Machine::RunProgress progress;
  machine.RunUntilFinished(60, 4 * 60, &progress);
  ASSERT_FALSE(machine.finisher().finished());

  Snapshot snapshot;
  machine.SaveSnapshot(snapshot);
  Machine restored(mc);
  ASSERT_TRUE(restored.RestoreSnapshot(snapshot));

  // Immediately store over the loop body through the bus: turn the addi into a nop
  // (addi a0, a0, 0). If any cached decode/superblock survived the restore, the
  // loop would still increment and eventually finish; with the invalidation
  // correct, a0 stops advancing and the loop spins forever.
  ASSERT_TRUE(restored.bus().Write(base, 4, 0x00050513));  // addi a0, a0, 0
  const uint64_t a0_before = restored.hart(0).gpr(10);
  restored.RunUntilFinished(500, 4 * 500, nullptr);
  EXPECT_FALSE(restored.finisher().finished());
  EXPECT_EQ(restored.hart(0).gpr(10), a0_before);
}

// ---------------------------------------------------------------------------------
// Monitored systems: Machine + Monitor state restore into a second booted system
// and continue identically.

TEST(MonitorSnapshotTest, MonitoredBootRoundTrips) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  KernelConfig config;
  config.base = profile.kernel_base;
  config.timer_interval = 200;
  auto make_kernel = [&]() {
    KernelBuilder kb(config);
    kb.EmitPrint("snapshot kernel\n");
    kb.EmitSetTimerRelative(100);
    kb.EmitWaitSlotAtLeast(KernelSlots::kTimerTicks, 40);
    kb.EmitFinish(/*pass=*/true);
    return kb.Finish();
  };

  System a = BootSystem(profile, DeployMode::kMiralis, make_kernel());
  System b = BootSystem(profile, DeployMode::kMiralis, make_kernel());

  // Run system A partway into the timer loop (budget-bounded, so it stops mid-run).
  Machine::RunProgress progress;
  a.machine->RunUntilFinished(30'000, 4 * 30'000, &progress);
  ASSERT_FALSE(a.machine->finisher().finished());

  // Snapshot machine + monitor, restore both into system B.
  Snapshot snapshot;
  a.machine->SaveSnapshot(snapshot);
  StateWriter writer;
  a.monitor->SaveState(writer);
  const std::vector<uint8_t> monitor_state = writer.Take();

  ASSERT_TRUE(b.machine->RestoreSnapshot(snapshot));
  StateReader reader(monitor_state);
  ASSERT_TRUE(b.monitor->LoadState(reader));

  // Both systems now continue from identical state with identical budgets: they
  // must finish the same way with identical final counters and console output.
  const uint64_t budget = 30'000'000;
  ASSERT_TRUE(a.machine->RunUntilFinished(budget));
  ASSERT_TRUE(b.machine->RunUntilFinished(budget));
  EXPECT_EQ(a.machine->finisher().exit_code(), b.machine->finisher().exit_code());
  EXPECT_EQ(a.machine->uart().output(), b.machine->uart().output());
  EXPECT_EQ(a.machine->hart(0).instret(), b.machine->hart(0).instret());
  EXPECT_EQ(a.machine->hart(0).cycles(), b.machine->hart(0).cycles());
  EXPECT_EQ(a.machine->hart(0).pc(), b.machine->hart(0).pc());
  EXPECT_GE(a.ReadResult(KernelSlots::kTimerTicks), 40u);
}

// ---------------------------------------------------------------------------------
// Parallel-hart snapshots (DESIGN.md §2i): a machine running the quantum schedule on
// the worker pool snapshots byte-identically to one running the same schedule
// serially, at the same retired count. SaveSnapshot and Fork need no special
// quiesce — workers only run inside the segment window of the run loop, so any
// caller-visible moment is a barrier.

std::vector<uint8_t> SnapshotRamBytes(const Snapshot& snapshot) {
  std::vector<uint8_t> all;
  for (const auto& image : snapshot.ram) {
    std::vector<uint8_t> bytes(image->size());
    image->CopyTo(bytes.data());
    all.insert(all.end(), bytes.begin(), bytes.end());
  }
  return all;
}

// A 4-hart native system where hart 0 sweeps shared memory and the secondaries run
// compute loops — enough cross-hart traffic that a schedule divergence would show
// up in RAM, not just in the hart state.
System BootQuantumWorkload(bool parallel) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 4, false);
  profile.machine.tuning.parallel_harts = parallel;
  profile.machine.tuning.max_batch_instructions = 4096;
  KernelConfig config;
  config.base = profile.kernel_base;
  config.hart_count = 4;
  KernelBuilder kb(config);
  kb.EmitStartSecondaries();
  kb.EmitMemoryLoop(100'000'000);  // effectively endless
  kb.EmitFinish(/*pass=*/true);
  kb.DefineSecondaryMain();
  kb.EmitMemoryLoop(100'000'000);
  kb.EmitSecondaryPark();
  return BootSystem(profile, DeployMode::kNative, kb.Finish());
}

TEST(ParallelSnapshotTest, MidRunSnapshotMatchesQuantumSerial) {
  System serial = BootQuantumWorkload(/*parallel=*/false);
  System parallel = BootQuantumWorkload(/*parallel=*/true);

  const uint64_t budget = 2'000'000;
  Machine::RunProgress sp, pp;
  serial.machine->RunUntilFinished(budget, 4 * budget, &sp);
  parallel.machine->RunUntilFinished(budget, 4 * budget, &pp);
  ASSERT_FALSE(serial.machine->finisher().finished());
  ASSERT_FALSE(parallel.machine->finisher().finished());
  ASSERT_EQ(sp.retired, pp.retired);  // identical schedule -> identical stop point
  EXPECT_GE(parallel.machine->pooled_quanta(), 1u);

  Snapshot serial_snap, parallel_snap;
  serial.machine->SaveSnapshot(serial_snap);
  parallel.machine->SaveSnapshot(parallel_snap);
  EXPECT_EQ(serial_snap.state, parallel_snap.state);
  EXPECT_EQ(SnapshotRamBytes(serial_snap), SnapshotRamBytes(parallel_snap));
}

TEST(ParallelSnapshotTest, ForkOfParallelMachineMatchesQuantumSerial) {
  System serial = BootQuantumWorkload(/*parallel=*/false);
  System parallel = BootQuantumWorkload(/*parallel=*/true);

  const uint64_t budget = 1'500'000;
  Machine::RunProgress sp, pp;
  serial.machine->RunUntilFinished(budget, 4 * budget, &sp);
  parallel.machine->RunUntilFinished(budget, 4 * budget, &pp);
  ASSERT_EQ(sp.retired, pp.retired);
  EXPECT_GE(parallel.machine->pooled_quanta(), 1u);

  // Fork both machines mid-run; the children must hold identical state. (The
  // children are compared to each other, not to a direct parent save, because the
  // bus section's debug-only generation counters reset on restore — RAM and every
  // architectural section are still covered, and the serial-vs-parallel direct
  // saves are compared by the test above.)
  std::unique_ptr<Machine> serial_child = serial.machine->Fork();
  std::unique_ptr<Machine> parallel_child = parallel.machine->Fork();
  Snapshot serial_snap, child_snap;
  serial_child->SaveSnapshot(serial_snap);
  parallel_child->SaveSnapshot(child_snap);
  EXPECT_EQ(serial_snap.state, child_snap.state);
  EXPECT_EQ(SnapshotRamBytes(serial_snap), SnapshotRamBytes(child_snap));

  // The parent keeps running on the pool without disturbing the child's images.
  parallel.machine->RunUntilFinished(200'000, 4 * 200'000, nullptr);
  Snapshot child_again;
  parallel_child->SaveSnapshot(child_again);
  EXPECT_EQ(child_snap.state, child_again.state);
  EXPECT_EQ(SnapshotRamBytes(child_snap), SnapshotRamBytes(child_again));
}

// ---------------------------------------------------------------------------------
// Snapshot files carry a full MachineConfig; a config the machine cannot run must be
// rejected at read time, not crash the tool that builds a machine from it.

TEST(SnapshotFileTest, RejectsConfigsTheMachineCannotRun) {
  MachineConfig mc;
  mc.map.ram_size = 1 << 20;
  Machine machine(mc);
  Snapshot snapshot;
  machine.SaveSnapshot(snapshot);
  const std::string path = ::testing::TempDir() + "/snapshot_config.snap";
  const auto file_bytes = [&](const MachineConfig& config) {
    std::vector<uint8_t> bytes;
    EXPECT_TRUE(WriteSnapshotFile(path, config, snapshot, {}));
    EXPECT_TRUE(ReadTraceFile(path, &bytes));
    return bytes;
  };
  const std::vector<uint8_t> good = file_bytes(mc);
  // A field's offset: the first byte that differs in a file whose config differs
  // only in that field (by +1, which always changes the low byte).
  const auto offset_of = [&](const auto& bump) {
    MachineConfig other = mc;
    bump(other);
    const std::vector<uint8_t> bytes = file_bytes(other);
    size_t i = 0;
    while (i < good.size() && good[i] == bytes[i]) {
      ++i;
    }
    return i;
  };
  struct Patch {
    const char* what;
    size_t offset;
    unsigned width;
    uint64_t value;
  };
  const Patch patches[] = {
      {"hart_count = 0", offset_of([](MachineConfig& c) { ++c.hart_count; }), 4, 0},
      {"mtime_tick_cycles = 0",
       offset_of([](MachineConfig& c) { ++c.cost.mtime_tick_cycles; }), 8, 0},
      {"instr_base = 0", offset_of([](MachineConfig& c) { ++c.cost.instr_base; }), 8, 0},
      {"uart inside the CLINT window", offset_of([](MachineConfig& c) { ++c.map.uart_base; }),
       8, mc.map.clint_base + 0x100},
      {"ram_size = 0", offset_of([](MachineConfig& c) { ++c.map.ram_size; }), 8, 0},
  };

  MachineConfig read_back;
  Snapshot snapshot_back;
  ASSERT_TRUE(WriteTraceFile(path, good));
  ASSERT_TRUE(ReadSnapshotFile(path, &read_back, &snapshot_back));
  for (const Patch& patch : patches) {
    ASSERT_LT(patch.offset + patch.width, good.size()) << patch.what;
    std::vector<uint8_t> bytes = good;
    std::memcpy(bytes.data() + patch.offset, &patch.value, patch.width);
    ASSERT_TRUE(WriteTraceFile(path, bytes));
    EXPECT_FALSE(ReadSnapshotFile(path, &read_back, &snapshot_back)) << patch.what;
  }

  // Older versions of the config section (version 1 with three since-removed
  // SimTuning fields, version 2 with quantum_harts) are rejected rather than
  // misread.
  const uint32_t tag = StateTag("MCFG");
  size_t tag_at = 0;
  while (tag_at + 8 <= good.size() && std::memcmp(good.data() + tag_at, &tag, 4) != 0) {
    ++tag_at;
  }
  ASSERT_LT(tag_at + 8, good.size());
  for (const uint32_t version : {1u, 2u}) {
    std::vector<uint8_t> old_version = good;
    std::memcpy(old_version.data() + tag_at + 4, &version, 4);
    StateReader reader(old_version.data() + tag_at, old_version.size() - tag_at);
    EXPECT_FALSE(ReadMachineConfig(reader, &read_back));
    EXPECT_NE(reader.error().find("version " + std::to_string(version)), std::string::npos)
        << reader.error();
    EXPECT_NE(reader.error().find("re-record the snapshot"), std::string::npos)
        << reader.error();
    ASSERT_TRUE(WriteTraceFile(path, old_version));
    EXPECT_FALSE(ReadSnapshotFile(path, &read_back, &snapshot_back));
  }
}

// ---------------------------------------------------------------------------------
// MemoryMap validation (satellite: no silent aliasing).

TEST(MemoryMapValidationDeathTest, OverlappingRegionsAbortWithClearError) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MachineConfig mc;
  mc.map.ram_size = 1 << 20;
  mc.map.uart_base = mc.map.clint_base + 0x100;  // inside the CLINT window
  EXPECT_DEATH({ Machine machine(mc); }, "overlap");
}

}  // namespace
}  // namespace vfm
