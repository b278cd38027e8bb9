// Whole-machine snapshot, CoW fork, and the uniform device-state API (DESIGN.md
// §2h): StateWriter/StateReader wire-format units, per-device round trips, machine
// round trips across the full cosim tuning matrix (a split save/restore run must be
// bit-identical to an uninterrupted one), fork divergence, and monitored-system
// save/restore.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/state.h"
#include "src/core/monitor.h"
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
// The wire format, pinned. A round trip cannot see two swapped fields, because the
// writer and the reader swap them alike. So every field below holds a distinct
// non-zero value where the component's accessors can set one (never through a
// stream), and each section's bytes must hash to the FNV-1a constant recorded when
// the format was pinned. A listing that drops, adds, reorders or swaps a field
// changes its section's hash. The monitor's per-hart world flags and mailboxes
// change only in its trap handlers, so they keep the values Boot() gives them.

template <typename Part>
std::vector<uint8_t> SavedState(const Part& part) {
  StateWriter writer;
  part.SaveState(writer);
  return writer.Take();
}

// Offset of the first section tagged `tag` at or after `from`.
size_t FindTag(const std::vector<uint8_t>& bytes, uint32_t tag, size_t from = 0) {
  uint8_t pattern[4];
  std::memcpy(pattern, &tag, sizeof pattern);
  const auto at = std::search(bytes.begin() + from, bytes.end(), pattern, pattern + 4);
  return static_cast<size_t>(at - bytes.begin());
}

// Sets CSRs to values that stay distinct and non-zero after WARL legalization,
// shifted by `salt` so two CSR files differ too.
void SetDistinctCsrs(CsrFile& csrs, uint64_t salt) {
  const std::pair<uint16_t, uint64_t> values[] = {
      {kCsrMstatus, 0x0000'000A'0000'1888},  // MIE, MPIE, MPP = M, 64-bit UXL and SXL
      {kCsrMedeleg, 0xB109},
      {kCsrMideleg, 0x222},
      {kCsrMie, 0x1AAA},
      {kCsrMip, 0x200},
      {kCsrMtvec, 0x8000'4101},
      {kCsrMcounteren, 0x0000'0005},
      {kCsrMenvcfg, 0x8000'0000'0000'0001},
      {kCsrMcountinhibit, 0x0000'000D},
      {kCsrMscratch, 0x5C5C'0001},
      {kCsrMepc, 0x8000'5004},
      {kCsrMcause, 0x8000'0000'0000'0007},
      {kCsrMtval, 0x7A11'0001},
      {kCsrMtval2, 0x7A12'0002},
      {kCsrMtinst, 0x7A13'0003},
      {kCsrMseccfg, 0x0000'0003},
      {kCsrMcycle, 0xC1C1'0000},
      {kCsrMinstret, 0x1257'0000},
      {kCsrStvec, 0x8000'6001},
      {kCsrScounteren, 0x0000'0006},
      {kCsrSenvcfg, 0x0000'0001'0000'0000 | 0xF1},
      {kCsrSscratch, 0x55C5'0002},
      {kCsrSepc, 0x8000'7008},
      {kCsrScause, 0x0000'0000'0000'000E},
      {kCsrStval, 0x57A1'0004},
      {kCsrSatp, 0x8000'1234'0008'8765},
      {kCsrStimecmp, 0x5713'0000},
      {kCsrHstatus, 0x0000'0000'0004'0080},
      {kCsrHedeleg, 0xB1F1},
      {kCsrHideleg, 0x444},
      {kCsrHie, 0x1444},
      {kCsrHtimedelta, 0x47D0'0000},
      {kCsrHcounteren, 0x0000'000B},
      {kCsrHenvcfg, 0x8000'0000'0000'0081},
      {kCsrHtval, 0x4712'0005},
      {kCsrHvip, 0x0000'0040},
      {kCsrHtinst, 0x4715'0006},
      {kCsrHgatp, 0x0000'0000'0004'4321},  // only Bare is modelled
      {kCsrVsstatus, 0x0000'0000'0000'0122},
      {kCsrVstvec, 0x8000'8001},
      {kCsrVsscratch, 0x755C'0007},
      {kCsrVsepc, 0x8000'900C},
      {kCsrVscause, 0x0000'0000'0000'000F},
      {kCsrVstval, 0x757A'0008},
      {kCsrVsatp, 0x8000'3456'0000'5678},
      {kCsrCustom0, 0xC0C0'0000},
      {kCsrCustom1, 0xC1C1'0001},
      {kCsrCustom2, 0xC2C2'0002},
      {kCsrCustom3, 0xC3C3'0003},
  };
  for (const auto& [addr, value] : values) {
    csrs.Set(addr, value + (addr == kCsrMstatus || addr == kCsrMtvec ? 0 : salt));
  }
  csrs.SetInterruptLine(InterruptCause::kMachineExternal, true);
  const uint8_t cfg[8] = {0x09, 0x0B, 0x0D, 0x0F, 0x19, 0x1B, 0x1D, 0x1F};
  uint64_t cfg_word = 0;
  for (unsigned i = 0; i < 8; ++i) {
    cfg_word |= uint64_t{cfg[i]} << (8 * i);
    csrs.Set(CsrPmpaddr(i), 0x2000'0000 + 0x100 * i + salt);
  }
  csrs.Set(CsrPmpcfg(0), cfg_word);
}

TEST(StateFormatTest, EverySectionKeepsItsBytes) {
  MachineConfig mc;
  mc.hart_count = 2;
  mc.map.ram_size = 1 << 20;
  mc.blockdev.enabled = true;
  mc.blockdev.sectors = 8;
  mc.isa.has_time_csr = true;
  mc.isa.has_sstc = true;
  mc.isa.has_h_ext = true;
  mc.isa.has_custom_csrs = true;
  mc.tuning.parallel_harts = false;
  Machine machine(mc);
  const uint64_t base = mc.map.ram_base;

  // Each hart takes one ecall trap, then holds a load reservation.
  Assembler a(base);
  a.Ecall();
  a.Bind("handler");
  a.LrW(t0, a1);
  a.Bind("spin");
  a.J("spin");
  const Image program = a.Finish().value();
  ASSERT_TRUE(machine.LoadImage(program.base, program.bytes));
  for (unsigned i = 0; i < 2; ++i) {
    machine.hart(i).set_pc(base);
    machine.hart(i).csrs().Set(kCsrMtvec, program.Symbol("handler"));
    machine.hart(i).set_gpr(a1, base + 0x800 + 8 * i);
  }
  const uint64_t spin = program.Symbol("spin");
  ASSERT_TRUE(machine.RunUntil(
      [&] { return machine.hart(0).pc() == spin && machine.hart(1).pc() == spin; }, 100));

  Monitor monitor(&machine, MonitorConfig{});
  monitor.Boot();
  for (unsigned i = 0; i < 2; ++i) {
    Hart& hart = machine.hart(i);
    for (unsigned r = 1; r < 32; ++r) {
      hart.set_gpr(r, 0x6000'0000'0000'0000 | uint64_t{i} << 40 | uint64_t{r} << 8 | 0x11);
    }
    hart.set_pc(0x8000'0A00 + 0x10 * i);
    hart.set_priv(PrivMode::kSupervisor);
    hart.set_virt(true);
    hart.set_waiting(true);
    SetDistinctCsrs(hart.csrs(), 0x10 * (i + 1));
    VirtContext& vctx = monitor.vctx(i);
    vctx.set_pc(0x8000'0B00 + 0x10 * i);
    vctx.set_priv(PrivMode::kSupervisor);
    SetDistinctCsrs(vctx.csrs(), 0x40 * (i + 1));
    monitor.vclint().set_virtual_mtimecmp(i, 0x7C00 + i);
    monitor.vclint().set_virtual_msip(i, true);
    machine.clint().set_mtimecmp(i, 0x6C00 + i);
    machine.clint().set_msip(i, true);
  }
  machine.clint().set_mtime(0x3E8);
  machine.HoldTickHorizon(0x3E8 + 0x200);

  Plic& plic = machine.plic();
  for (unsigned src = 1; src < Plic::kMaxSources; ++src) {
    ASSERT_TRUE(plic.MmioWrite(4 * src, 4, 0x20 + src));
  }
  ASSERT_TRUE(plic.MmioWrite(0x2000, 4, 0x0000'F0F6));
  ASSERT_TRUE(plic.MmioWrite(0x2080, 4, 0x00F0'0F0A));
  plic.RaiseSource(1);
  plic.RaiseSource(2);
  plic.RaiseSource(5);
  uint64_t claimed = 0;
  ASSERT_TRUE(plic.MmioRead(0x200004, 4, &claimed));

  Uart& uart = machine.uart();
  for (const char c : std::string("out")) {
    ASSERT_TRUE(uart.MmioWrite(Uart::kDataOffset, 1, static_cast<uint8_t>(c)));
  }
  uart.PushInput("queued");

  // The block device completes one write, then is left busy with a read.
  BlockDev& blockdev = *machine.blockdev();
  ASSERT_TRUE(machine.bus().Write(base + 0x4000, 8, 0xD15C'0001));
  const uint64_t write[3] = {1, 2, base + 0x4000};  // LBA, COUNT, DMA
  for (unsigned i = 0; i < 3; ++i) {
    ASSERT_TRUE(blockdev.MmioWrite(BlockDev::kRegLba + 8 * i, 8, write[i]));
  }
  ASSERT_TRUE(blockdev.MmioWrite(BlockDev::kRegCmd, 8, BlockDev::kCmdWrite));
  blockdev.Tick(0x90);
  const uint64_t read[3] = {3, 1, base + 0x5000};
  for (unsigned i = 0; i < 3; ++i) {
    ASSERT_TRUE(blockdev.MmioWrite(BlockDev::kRegLba + 8 * i, 8, read[i]));
  }
  ASSERT_TRUE(blockdev.MmioWrite(BlockDev::kRegCmd, 8, BlockDev::kCmdRead));
  ASSERT_TRUE(blockdev.busy());
  ASSERT_TRUE(machine.finisher().MmioWrite(0, 4, 0x2A'0000 | Finisher::kFinishFail));

  // Swaps show only between distinct values: the hart's CSR words are.
  const std::vector<uint8_t> csrf = SavedState(machine.hart(0).csrs());
  StateReader words(csrf);
  words.BeginSection(StateTag("CSRF"));
  std::vector<uint64_t> seen;
  for (unsigned i = 0; i < 51; ++i) {
    const uint64_t word = words.U64();
    EXPECT_NE(word, 0u) << "CSRF word " << i;
    EXPECT_EQ(std::count(seen.begin(), seen.end(), word), 0) << "CSRF word " << i;
    seen.push_back(word);
  }

  MachineConfig config;
  config.hart_count = 3;
  config.map = {0x8100'0000, 0x20'0000, 0x200'1000, 0xC00'2000,
                0x1000'3000, 0x1001'4000, 0x10'5000};
  config.blockdev = {true, 0x61, 0x62, 0x63};
  config.isa.pmp_entries = 16;
  config.isa.has_time_csr = config.isa.has_sstc = config.isa.has_h_ext = true;
  config.isa.has_custom_csrs = config.isa.hw_misaligned = true;
  config.isa.mvendorid = 0x71;
  config.isa.marchid = 0x72;
  config.isa.mimpid = 0x73;
  uint64_t* costs[] = {&config.cost.instr_base,       &config.cost.instr_muldiv,
                       &config.cost.instr_mem,        &config.cost.trap_entry,
                       &config.cost.page_walk_level,  &config.cost.hal_csr_access,
                       &config.cost.monitor_dispatch, &config.cost.hal_mem_access,
                       &config.cost.hal_base_op,      &config.cost.tlb_flush,
                       &config.cost.mtime_tick_cycles, &config.cost.freq_mhz};
  for (size_t i = 0; i < std::size(costs); ++i) {
    *costs[i] = 0x81 + i;
  }
  config.tuning.decode_cache_entries = 0x91;
  config.tuning.max_batch_instructions = 0x92;
  config.tuning.tlb_entries = 0x93;
  config.tuning.superblock_entries = 0x94;
  config.tuning.parallel_harts = true;
  StateWriter mcfg;
  WriteMachineConfig(mcfg, config);

  TraceHeader header;
  header.fingerprint = {0xA1, 0xA2, 0xA3};
  header.anchor_retired = 0xB1;
  header.anchor_rounds = 0xB2;
  header.hart_count = 0xB3;
  header.hash_period = 0xB4;
  TraceEvent event;
  event.kind = TraceEventKind::kPlicLine;
  event.sub = 0xC1;
  event.hart = 0xC2;
  event.retired = 0xC3;
  event.round = 0xC4;
  event.a = 0xC5;
  event.b = 0xC6;
  event.payload = {0xC7, 0xC8};
  TraceWriter trace;
  trace.Begin(header);
  trace.Append(event);

  Snapshot snapshot;
  machine.SaveSnapshot(snapshot);
  const struct {
    const char* name;
    std::vector<uint8_t> bytes;
    uint64_t hash;
  } sections[] = {
      {"MACH", snapshot.state, 0x7164'C76A'7DBA'A91F},
      {"HART 0", SavedState(machine.hart(0)), 0x7CE6'5902'805C'44E5},
      {"HART 1", SavedState(machine.hart(1)), 0xB1DC'727D'4596'5DD3},
      {"CSRF", csrf, 0x6308'3F5D'93D8'2FCA},
      {"PMPB", SavedState(machine.hart(1).csrs().pmp()), 0xC20E'3F68'A2CF'92CD},
      {"BUSS", SavedState(machine.bus()), 0xE0B9'57A2'DCCD'172C},
      {"CLNT", SavedState(machine.clint()), 0x235D'2C4D'8235'FD61},
      {"PLIC", SavedState(plic), 0x46AD'AEC6'53C9'D29F},
      {"UART", SavedState(uart), 0xA32B'E895'FE85'682D},
      {"BLKD", SavedState(blockdev), 0xE033'3603'F19C'D19E},
      {"FINI", SavedState(machine.finisher()), 0x58CE'2CB7'E287'F7EE},
      {"MONS", SavedState(monitor), 0xCD37'37E5'A4F2'825F},
      {"VCTX", SavedState(monitor.vctx(1)), 0x6883'D413'5641'02D5},
      {"MCFG", mcfg.bytes(), 0x0100'8B92'9601'6428},
      {"TRAC", trace.Finish(), 0x42ED'2FA4'2164'8882},
  };
  for (const auto& section : sections) {
    EXPECT_EQ(Fnv1a64(section.bytes.data(), section.bytes.size()), section.hash)
        << section.name << " section changed: " << section.bytes.size() << " bytes, hash 0x"
        << std::hex << Fnv1a64(section.bytes.data(), section.bytes.size());
  }
  // The MACH section carries the progress and the hold the run left.
  EXPECT_GT(machine.progress().retired, 0u);
  EXPECT_GT(machine.hold_tick(), machine.clint().mtime());
}

// CSRF's load rule: mstatus.MPP never holds the reserved privilege 2 (the runtime
// legalizes it away), so a snapshot that does is rejected, for a hart's CSR file and
// for the monitor's virtual one alike. MPP is bits 12:11 of mstatus, the second word
// of a CSRF section.
uint64_t PatchMpp(std::vector<uint8_t>& bytes, size_t csrf_at, uint64_t mpp) {
  const size_t mstatus_at = csrf_at + 16 + 8;
  uint64_t mstatus = 0;
  std::memcpy(&mstatus, bytes.data() + mstatus_at, sizeof mstatus);
  mstatus = (mstatus & ~(uint64_t{3} << 11)) | mpp << 11;
  std::memcpy(bytes.data() + mstatus_at, &mstatus, sizeof mstatus);
  return mstatus;
}

TEST(StateFormatTest, LoadRejectsTheReservedMachinePreviousPrivilege) {
  const std::string rule = "mstatus.MPP holds the reserved privilege 2";
  MachineConfig mc;
  mc.map.ram_size = 1 << 20;
  Machine machine(mc);
  Snapshot snapshot;
  machine.SaveSnapshot(snapshot);
  const size_t csrf_at = FindTag(snapshot.state, StateTag("CSRF"));
  ASSERT_LT(csrf_at, snapshot.state.size());
  // MPP = S loads, which shows the patch lands on mstatus.
  Snapshot supervisor = snapshot;
  const uint64_t mstatus = PatchMpp(supervisor.state, csrf_at, 1);
  Machine loaded(mc);
  ASSERT_TRUE(loaded.RestoreSnapshot(supervisor));
  EXPECT_EQ(loaded.hart(0).csrs().mstatus(), mstatus);
  Snapshot reserved = snapshot;
  PatchMpp(reserved.state, csrf_at, 2);
  Machine target(mc);
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(target.RestoreSnapshot(reserved));
  const std::string error = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(error.find(rule), std::string::npos) << error;

  Monitor monitor(&machine, MonitorConfig{});
  monitor.Boot();
  StateWriter writer;
  monitor.SaveState(writer);
  std::vector<uint8_t> state = writer.Take();
  const size_t vctx_csrf_at = FindTag(state, StateTag("CSRF"), FindTag(state, StateTag("VCTX")));
  ASSERT_LT(vctx_csrf_at, state.size());
  PatchMpp(state, vctx_csrf_at, 1);
  StateReader good(state);
  EXPECT_TRUE(monitor.LoadState(good)) << good.error();
  PatchMpp(state, vctx_csrf_at, 2);
  StateReader bad(state);
  EXPECT_FALSE(monitor.LoadState(bad));
  EXPECT_NE(bad.error().find(rule), std::string::npos) << bad.error();
}

// MACH version 1 had no lifetime progress and version 2 no hold tick: both still load
// onto a machine that has progress and a hold of its own, version 1 with zero
// progress, and both with no hold and the saved harts. The progress and the hold sit
// between the fingerprint and the first hart section.
TEST(StateFormatTest, OlderMachineVersionsLoadWithZeroProgressAndNoHold) {
  MachineConfig mc;
  mc.map.ram_size = 1 << 20;
  mc.hart_count = 2;
  Assembler a(mc.map.ram_base);
  a.Bind("loop");
  a.Addi(a0, a0, 1);
  a.J("loop");
  const Image program = a.Finish().value();
  // A machine that has counted `retired` instructions on both harts and holds.
  const auto run = [&](Machine& machine, uint64_t retired) {
    ASSERT_TRUE(machine.LoadImage(program.base, program.bytes));
    machine.RunUntilFinished(retired, retired, nullptr);
    machine.HoldTickHorizon(machine.clint().mtime() + retired);
  };
  Machine source(mc);
  run(source, 500);
  ASSERT_GT(source.progress().retired, 0u);
  Snapshot snapshot;
  source.SaveSnapshot(snapshot);
  const size_t hart_at = FindTag(snapshot.state, StateTag("HART"));
  ASSERT_LT(hart_at, snapshot.state.size());
  for (const uint32_t version : {1u, 2u}) {
    SCOPED_TRACE("MACH version " + std::to_string(version));
    const size_t dropped = version == 1 ? 24 : 8;
    Snapshot old = snapshot;
    old.state.erase(old.state.begin() + hart_at - dropped, old.state.begin() + hart_at);
    uint64_t payload = 0;
    std::memcpy(&payload, old.state.data() + 8, sizeof payload);
    payload -= dropped;
    std::memcpy(old.state.data() + 4, &version, sizeof version);
    std::memcpy(old.state.data() + 8, &payload, sizeof payload);
    Machine target(mc);
    run(target, 100);
    ASSERT_GT(target.progress().retired, 0u);
    ASSERT_TRUE(target.RestoreSnapshot(old));
    const Machine::RunProgress progress =
        version == 1 ? Machine::RunProgress{} : source.progress();
    EXPECT_EQ(target.progress().retired, progress.retired);
    EXPECT_EQ(target.progress().rounds, progress.rounds);
    EXPECT_EQ(target.hold_tick(), 0u);
    for (unsigned i = 0; i < 2; ++i) {
      EXPECT_TRUE(SavedState(target.hart(i)) == SavedState(source.hart(i))) << "hart " << i;
    }
  }
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
  Bus bus(0x8000'0000, 0x10000);
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

// A count or a field that runs past its section fails as a truncation, before any
// rule over the fields it cut off: the UART's input queue counts more bytes than its
// section holds, and a busy block device's section ends after its command, which is
// one it could not have started.
TEST(DeviceStateTest, TruncatedSectionsFailAsTruncations) {
  Uart uart;
  uart.PushInput("xy");
  std::vector<uint8_t> bytes = SavedState(uart);
  const uint64_t queued = 5;
  std::memcpy(bytes.data() + bytes.size() - 2 - sizeof queued, &queued, sizeof queued);
  StateReader uart_reader(bytes);
  EXPECT_FALSE(Uart().LoadState(uart_reader));
  EXPECT_EQ(uart_reader.error(), "state stream truncated");

  Bus bus(0x8000'0000, 0x10000);
  Plic plic(1);
  BlockDev a(&bus, &plic, 1, /*capacity_sectors=*/64, /*latency_ticks=*/5,
             /*ticks_per_sector=*/1);
  ASSERT_TRUE(a.MmioWrite(BlockDev::kRegCount, 8, 1));
  ASSERT_TRUE(a.MmioWrite(BlockDev::kRegDmaAddr, 8, 0x8000'1000));
  ASSERT_TRUE(a.MmioWrite(BlockDev::kRegCmd, 8, BlockDev::kCmdRead));
  ASSERT_TRUE(a.busy());
  bytes = SavedState(a);
  // Section header, then the disk blob, then LBA, COUNT, DMA, status and command.
  const size_t cmd_at = 16 + 8 + 64 * BlockDev::kSectorSize + 4 * 8;
  const uint64_t command = 7;
  std::memcpy(bytes.data() + cmd_at, &command, sizeof command);
  StateReader whole(bytes);
  EXPECT_FALSE(BlockDev(&bus, &plic, 1, 64, 5, 1).LoadState(whole));
  EXPECT_NE(whole.error().find("could not have started"), std::string::npos) << whole.error();
  bytes.resize(cmd_at + sizeof command);
  const uint64_t payload = bytes.size() - 16;
  std::memcpy(bytes.data() + 8, &payload, sizeof payload);
  StateReader cut(bytes);
  EXPECT_FALSE(BlockDev(&bus, &plic, 1, 64, 5, 1).LoadState(cut));
  EXPECT_EQ(cut.error(), "state stream truncated");
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

TEST(SnapshotRoundTripTest, RestoreRejectsPrivilegeStateThatCannotOccur) {
  // A hart's section holds its pc, then its privilege byte, then its V bit. A
  // privilege other than U, S or M, or V set on a hart without the H extension,
  // must fail the restore rather than load.
  MachineConfig mc;
  mc.map.ram_size = 1 << 20;
  Machine a(mc);
  constexpr uint64_t kPc = 0x0123'4567'89AB'CDE0;
  a.hart(0).set_pc(kPc);
  a.hart(0).set_priv(PrivMode::kSupervisor);
  Snapshot snapshot;
  a.SaveSnapshot(snapshot);
  uint8_t pc_bytes[8];
  std::memcpy(pc_bytes, &kPc, sizeof(pc_bytes));
  const auto at = std::search(snapshot.state.begin(), snapshot.state.end(),
                              std::begin(pc_bytes), std::end(pc_bytes));
  ASSERT_NE(at, snapshot.state.end());
  const size_t priv_offset = static_cast<size_t>(at - snapshot.state.begin()) + 8;
  ASSERT_EQ(snapshot.state[priv_offset], static_cast<uint8_t>(PrivMode::kSupervisor));

  Machine b(mc);
  ASSERT_TRUE(b.RestoreSnapshot(snapshot));
  EXPECT_EQ(b.hart(0).priv(), PrivMode::kSupervisor);
  for (const uint8_t priv : {uint8_t{2}, uint8_t{7}}) {
    Snapshot bad = snapshot;
    bad.state[priv_offset] = priv;
    Machine c(mc);
    EXPECT_FALSE(c.RestoreSnapshot(bad)) << "privilege " << int{priv};
    EXPECT_EQ(c.hart(0).priv(), PrivMode::kMachine);
  }
  Snapshot virt = snapshot;
  virt.state[priv_offset + 1] = 1;
  Machine d(mc);
  EXPECT_FALSE(d.RestoreSnapshot(virt));
  EXPECT_FALSE(d.hart(0).virt());
}

TEST(SnapshotRoundTripTest, RestoreRejectsABusyBlockDeviceThatCouldNotHaveStarted) {
  // The block device's section holds LBA, COUNT and the DMA address, then status,
  // pending command and deadline. A busy device must hold a command the guest could
  // have started: a read or write within the disk. Anything else would run its DMA
  // outside the disk on the first tick.
  MachineConfig mc;
  mc.map.ram_size = 1 << 20;
  mc.blockdev.enabled = true;
  mc.blockdev.sectors = 64;
  Machine a(mc);
  const uint64_t registers[3] = {3, 2, mc.map.ram_base + 0x4560};  // LBA, COUNT, DMA
  for (unsigned i = 0; i < 3; ++i) {
    ASSERT_TRUE(a.blockdev()->MmioWrite(BlockDev::kRegLba + 8 * i, 8, registers[i]));
  }
  ASSERT_TRUE(a.blockdev()->MmioWrite(BlockDev::kRegCmd, 8, BlockDev::kCmdRead));
  ASSERT_TRUE(a.blockdev()->busy());
  Snapshot snapshot;
  a.SaveSnapshot(snapshot);
  const uint8_t* first = reinterpret_cast<const uint8_t*>(registers);
  const auto at = std::search(snapshot.state.begin(), snapshot.state.end(), first,
                              first + sizeof(registers));
  ASSERT_NE(at, snapshot.state.end());
  const size_t lba_offset = static_cast<size_t>(at - snapshot.state.begin());
  const size_t count_offset = lba_offset + 8;
  const size_t cmd_offset = lba_offset + 32;
  const auto patched = [&](std::initializer_list<std::pair<size_t, uint64_t>> fields) {
    Snapshot bad = snapshot;
    for (const auto& [offset, value] : fields) {
      std::memcpy(bad.state.data() + offset, &value, sizeof value);
    }
    return bad;
  };

  Machine b(mc);
  ASSERT_TRUE(b.RestoreSnapshot(patched({})));
  EXPECT_TRUE(b.blockdev()->busy());
  const Snapshot bad_snapshots[] = {
      patched({{cmd_offset, 7}}),
      patched({{lba_offset, ~uint64_t{0}}, {count_offset, 2}}),
      patched({{lba_offset, ~uint64_t{0} << 55}, {count_offset, 1ull << 55}}),
      patched({{lba_offset, 63}, {count_offset, 2}}),
  };
  for (const Snapshot& bad : bad_snapshots) {
    Machine c(mc);
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(c.RestoreSnapshot(bad));
    const std::string error = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(error.find("could not have started"), std::string::npos) << error;
    EXPECT_FALSE(c.blockdev()->busy());
  }
}

TEST(SnapshotRoundTripTest, RejectedRestoreLeavesTheTargetUntouched) {
  // The block device's section loads after the harts and the bus, so a snapshot the
  // block device rejects must still leave the target as it was. The target has run
  // a program first, so its registers, CSRs and RAM hold state of their own.
  MachineConfig mc;
  mc.map.ram_size = 1 << 20;
  mc.blockdev.enabled = true;
  mc.blockdev.sectors = 64;
  const uint64_t base = mc.map.ram_base;
  Assembler a(base);
  a.Li(t0, base + 0x8000);
  a.Li(a0, 0);
  a.Li(a1, 1000);
  a.Bind("loop");
  a.Addi(a0, a0, 1);
  a.Sd(a0, t0, 0);
  a.Addi(t0, t0, 8);
  a.Bne(a0, a1, "loop");
  a.Csrw(kCsrMscratch, a0);
  a.Bind("done");
  a.J("done");
  const Image program = a.Finish().value();
  Machine target(mc);
  ASSERT_TRUE(target.LoadImage(program.base, program.bytes));
  const uint64_t done = program.Symbol("done");
  ASSERT_TRUE(target.RunUntil([&] { return target.hart(0).pc() == done; }, 100'000));

  // A busy source whose pending command is patched to 7, which no guest can start.
  Machine source(mc);
  source.hart(0).set_pc(0x0123'4567'89AB'CDE0);
  source.hart(0).set_gpr(a0, 0xCAFE);
  const uint64_t registers[3] = {3, 2, base + 0x4560};  // LBA, COUNT, DMA
  for (unsigned i = 0; i < 3; ++i) {
    ASSERT_TRUE(source.blockdev()->MmioWrite(BlockDev::kRegLba + 8 * i, 8, registers[i]));
  }
  ASSERT_TRUE(source.blockdev()->MmioWrite(BlockDev::kRegCmd, 8, BlockDev::kCmdRead));
  Snapshot snapshot;
  source.SaveSnapshot(snapshot);
  const uint8_t* first = reinterpret_cast<const uint8_t*>(registers);
  const auto at = std::search(snapshot.state.begin(), snapshot.state.end(), first,
                              first + sizeof(registers));
  ASSERT_NE(at, snapshot.state.end());
  Snapshot bad = snapshot;
  const uint64_t command = 7;
  std::memcpy(bad.state.data() + (at - snapshot.state.begin()) + 32, &command, sizeof command);

  const auto csr_state = [&target] {
    StateWriter writer;
    target.hart(0).csrs().SaveState(writer);
    return writer.Take();
  };
  const auto ram_hash = [&target] {
    return Fnv1a64(target.bus().ram().data(), target.bus().ram().size());
  };
  const uint64_t pc = target.hart(0).pc();
  std::vector<uint64_t> gprs;
  for (unsigned i = 0; i < 32; ++i) {
    gprs.push_back(target.hart(0).gpr(i));
  }
  const std::vector<uint8_t> csrs = csr_state();
  const uint64_t ram = ram_hash();
  ASSERT_EQ(target.hart(0).csrs().Get(kCsrMscratch), 1000u);

  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(target.RestoreSnapshot(bad));
  const std::string error = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(error.find("could not have started"), std::string::npos) << error;
  EXPECT_EQ(target.hart(0).pc(), pc);
  for (unsigned i = 0; i < 32; ++i) {
    EXPECT_EQ(target.hart(0).gpr(i), gprs[i]) << "x" << i;
  }
  EXPECT_TRUE(csr_state() == csrs) << "the CSRs changed";
  EXPECT_EQ(ram_hash(), ram);
  EXPECT_FALSE(target.blockdev()->busy());

  // The unpatched snapshot restores onto the same target.
  ASSERT_TRUE(target.RestoreSnapshot(snapshot));
  EXPECT_EQ(target.hart(0).pc(), 0x0123'4567'89AB'CDE0u);
  EXPECT_EQ(target.hart(0).gpr(a0), 0xCAFEu);
  EXPECT_TRUE(target.blockdev()->busy());
}

TEST(SnapshotRoundTripTest, RepeatedSaveOfQuiescentMachineReusesImages) {
  MachineConfig mc;
  mc.map.ram_size = 1 << 20;
  Machine machine(mc);
  Snapshot s1;
  machine.SaveSnapshot(s1);
  Snapshot s2;
  machine.SaveSnapshot(s2);
  // No store ran between the saves, so the CoW image is literally shared.
  ASSERT_NE(s1.ram, nullptr);
  EXPECT_EQ(s1.ram.get(), s2.ram.get());
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

// A fork copies no RAM: the child maps the parent's frozen image copy-on-write, so
// forking a booted 128 MiB machine takes only the page faults of the child's own
// small allocations. Copying the RAM instead takes one fault per host page, 32,768
// of them per fork. Minor faults are deterministic where wall-clock time is not.
TEST(ForkTest, ForkCopiesNoRamPages) {
  constexpr unsigned kForks = 32;
  // Measured 1.6 faults per fork in the release build and 6.7-6.9 in the
  // asan-ubsan build (three runs of 32 forks each).
  constexpr long kMaxFaultsPerFork = 64;
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  ASSERT_EQ(profile.machine.map.ram_size, 128ull << 20);
  KernelConfig config;
  config.base = profile.kernel_base;
  KernelBuilder kb(config);
  kb.EmitComputeLoop(1'000'000'000, 16);  // effectively endless
  kb.EmitFinish(/*pass=*/true);
  System system = BootSystem(profile, DeployMode::kMiralis, kb.Finish());
  system.machine->RunUntilFinished(200'000);

  const auto minor_faults = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_minflt;
  };
  std::vector<std::unique_ptr<Machine>> children;
  children.reserve(kForks);
  const long before = minor_faults();
  for (unsigned i = 0; i < kForks; ++i) {
    children.push_back(system.machine->Fork());
  }
  const long faults = minor_faults() - before;
  EXPECT_LE(faults, kMaxFaultsPerFork * kForks)
      << faults << " minor faults over " << kForks << " forks of "
      << profile.machine.map.ram_size / 4096 << " RAM pages each";
  EXPECT_EQ(children.back()->hart(0).pc(), system.machine->hart(0).pc());
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

TEST(MonitorSnapshotTest, RejectsOlderStateVersions) {
  // Version 1 carried a per-hart field that version 2 dropped, and version 2 nested a
  // shadow-CSR section that version 3 replaced with a CsrFile section. Loading either
  // must fail with a reason instead of misreading every field after it.
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 1, false);
  KernelConfig config;
  config.base = profile.kernel_base;
  KernelBuilder kb(config);
  kb.EmitFinish(/*pass=*/true);
  System system = BootSystem(profile, DeployMode::kMiralis, kb.Finish());
  for (const uint32_t version : {1u, 2u}) {
    StateWriter writer;
    writer.BeginSection(StateTag("MONS"), version);
    writer.U32(1);
    writer.EndSection();
    const std::vector<uint8_t> bytes = writer.Take();
    StateReader reader(bytes);
    EXPECT_FALSE(system.monitor->LoadState(reader));
    EXPECT_NE(reader.error().find("monitor state version " + std::to_string(version)),
              std::string::npos)
        << reader.error();
  }
}

// Machine::RestoreSnapshot stages only the machine, so a rejected monitor load must
// leave the monitor as it was: an older version, another hart count, and a section
// whose second virtual context breaks a rule after the first one has loaded.
TEST(MonitorSnapshotTest, RejectedLoadLeavesTheMonitorUntouched) {
  PlatformProfile profile = MakePlatform(PlatformKind::kVf2Sim, 2, false);
  KernelConfig config;
  config.base = profile.kernel_base;
  config.hart_count = 2;
  KernelBuilder kb(config);
  kb.EmitFinish(/*pass=*/true);
  System system = BootSystem(profile, DeployMode::kMiralis, kb.Finish());
  Monitor& monitor = *system.monitor;
  const std::vector<uint8_t> before = SavedState(monitor);
  const uint64_t pc = monitor.vctx(0).pc();
  const PrivMode priv = monitor.vctx(0).priv();

  StateWriter older;
  older.BeginSection(StateTag("MONS"), 2);
  older.U32(2);
  older.EndSection();
  std::vector<uint8_t> harts = before;
  const uint32_t three = 3;
  std::memcpy(harts.data() + 16, &three, sizeof three);  // after the section header
  // A VCTX holds its pc, then its privilege, after its section header.
  std::vector<uint8_t> second = before;
  const size_t first_vctx = FindTag(second, StateTag("VCTX"));
  const size_t second_vctx = FindTag(second, StateTag("VCTX"), first_vctx + 4);
  ASSERT_LT(second_vctx, second.size());
  const uint64_t other_pc = pc ^ 0x1110;
  std::memcpy(second.data() + first_vctx + 16, &other_pc, sizeof other_pc);
  second[first_vctx + 24] =
      static_cast<uint8_t>(priv == PrivMode::kMachine ? PrivMode::kSupervisor : PrivMode::kMachine);
  second[second_vctx + 24] = 7;

  const std::pair<std::vector<uint8_t>, std::string> rejected[] = {
      {older.Take(), "monitor state version 2"},
      {harts, "MONS: hart count mismatch"},
      {second, "virtual privilege 7 is not U, S or M"},
  };
  for (const auto& [bytes, error] : rejected) {
    StateReader reader(bytes);
    EXPECT_FALSE(monitor.LoadState(reader));
    EXPECT_NE(reader.error().find(error), std::string::npos) << reader.error();
    EXPECT_EQ(monitor.vctx(0).pc(), pc);
    EXPECT_EQ(monitor.vctx(0).priv(), priv);
    EXPECT_EQ(SavedState(monitor), before) << error;
  }
}

// ---------------------------------------------------------------------------------
// Parallel-hart snapshots (DESIGN.md §2i): a machine running the quantum schedule on
// the worker pool snapshots byte-identically to one running the same schedule
// serially, at the same retired count. SaveSnapshot and Fork need no special
// quiesce — workers only run inside the segment window of the run loop, so any
// caller-visible moment is a barrier.

std::vector<uint8_t> SnapshotRamBytes(const Snapshot& snapshot) {
  std::vector<uint8_t> bytes(snapshot.ram->size());
  snapshot.ram->CopyTo(bytes.data());
  return bytes;
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

// WriteSnapshotFile streams the RAM image to the file instead of staging the whole
// file in memory. The bytes it writes are those of the whole file built in one
// StateWriter: SNPF{MCFG{...}, state, RAM image, aux}. The image is larger than
// one streamed chunk, and the aux blob is not empty.
TEST(SnapshotFileTest, StreamedFileMatchesTheStagedLayout) {
  MachineConfig mc;
  mc.map.ram_size = 4 << 20;
  Machine machine(mc);
  ASSERT_TRUE(machine.bus().Write(mc.map.ram_base + 0x100, 8, 0x1234'5678));
  ASSERT_TRUE(machine.bus().Write(mc.map.ram_base + mc.map.ram_size - 8, 8, 0xFEED));
  machine.hart(0).set_gpr(10, 0xCAFE);
  Snapshot snapshot;
  machine.SaveSnapshot(snapshot);
  const std::vector<uint8_t> aux = {1, 2, 3, 4, 5};
  const std::string path = ::testing::TempDir() + "/snapshot_streamed.snap";
  ASSERT_TRUE(WriteSnapshotFile(path, mc, snapshot, aux));
  std::vector<uint8_t> file;
  ASSERT_TRUE(ReadTraceFile(path, &file));

  std::vector<uint8_t> image(snapshot.ram->size());
  ASSERT_GT(image.size(), 1u << 20);
  snapshot.ram->CopyTo(image.data());
  StateWriter staged;
  staged.BeginSection(StateTag("SNPF"), 2);
  WriteMachineConfig(staged, mc);
  staged.Bytes(snapshot.state.data(), snapshot.state.size());
  staged.Bytes(image.data(), image.size());
  staged.Bytes(aux.data(), aux.size());
  staged.EndSection();
  EXPECT_TRUE(file == staged.bytes()) << "file " << file.size() << " bytes, staged "
                                      << staged.bytes().size();

  MachineConfig config;
  Snapshot read_back;
  std::vector<uint8_t> aux_back;
  ASSERT_TRUE(ReadSnapshotFile(path, &config, &read_back, &aux_back));
  EXPECT_EQ(aux_back, aux);
  Machine target(config);
  ASSERT_TRUE(target.RestoreSnapshot(read_back));
  uint64_t value = 0;
  ASSERT_TRUE(target.bus().Read(mc.map.ram_base + mc.map.ram_size - 8, 8, &value));
  EXPECT_EQ(value, 0xFEEDu);
  EXPECT_EQ(target.hart(0).gpr(10), 0xCAFEu);
}

// A snapshot file's RAM image must fit the RAM its own config maps, and its SNPF
// section must be the current version (version 1 held a count of images). Each
// damaged file is rejected with a logged reason, and so is an in-memory snapshot
// with no image or a short one, before the machine loads anything.
TEST(SnapshotFileTest, RejectsDamagedRamImageAndOldVersion) {
  MachineConfig mc;
  mc.map.ram_size = 1 << 20;
  Machine machine(mc);
  ASSERT_TRUE(machine.bus().Write(mc.map.ram_base + 0x100, 8, 0x1234'5678));
  machine.hart(0).set_gpr(10, 0xCAFE);
  Snapshot snapshot;
  machine.SaveSnapshot(snapshot);
  const std::string path = ::testing::TempDir() + "/snapshot_damaged.snap";
  ASSERT_TRUE(WriteSnapshotFile(path, mc, snapshot, {}));
  std::vector<uint8_t> good;
  ASSERT_TRUE(ReadTraceFile(path, &good));

  // The file is SNPF{MCFG{...}, state, RAM image, aux}: a section header is a tag,
  // a version and a u64 payload length; a blob is a u64 length and its bytes.
  const auto u64_at = [](const std::vector<uint8_t>& bytes, size_t at) {
    uint64_t value = 0;
    std::memcpy(&value, bytes.data() + at, sizeof value);
    return value;
  };
  const size_t mcfg_at = 16;
  const size_t state_at = mcfg_at + 16 + u64_at(good, mcfg_at + 8);
  const size_t image_at = state_at + 8 + u64_at(good, state_at);
  const uint64_t image_size = u64_at(good, image_at);
  ASSERT_EQ(image_size, Ram::ImageSize(mc.map.ram_size));
  // The file with the image `delta` bytes longer (zeros appended) or shorter, and
  // the two lengths that cover it patched to match.
  const auto resized_image = [&](int64_t delta) {
    std::vector<uint8_t> bytes(good.begin(), good.begin() + image_at + 8);
    const uint8_t* image = good.data() + image_at + 8;
    const uint64_t kept = delta < 0 ? image_size + delta : image_size;
    bytes.insert(bytes.end(), image, image + kept);
    bytes.resize(bytes.size() + (delta > 0 ? delta : 0), 0);
    bytes.insert(bytes.end(), good.begin() + image_at + 8 + image_size, good.end());
    const uint64_t blob = image_size + delta;
    const uint64_t payload = u64_at(good, 8) + delta;
    std::memcpy(bytes.data() + image_at, &blob, sizeof blob);
    std::memcpy(bytes.data() + 8, &payload, sizeof payload);
    return bytes;
  };
  std::vector<uint8_t> version_one = good;
  const uint32_t one = 1;
  std::memcpy(version_one.data() + 4, &one, sizeof one);

  const auto read_error = [&](const std::vector<uint8_t>& bytes) {
    EXPECT_TRUE(WriteTraceFile(path, bytes));
    MachineConfig config;
    Snapshot read_back;
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(ReadSnapshotFile(path, &config, &read_back));
    return ::testing::internal::GetCapturedStderr();
  };
  const std::string short_error = read_error(resized_image(-4096));
  EXPECT_NE(short_error.find("RAM image is " + std::to_string(image_size - 4096) + " bytes"),
            std::string::npos)
      << short_error;
  const std::string long_error = read_error(resized_image(4096));
  EXPECT_NE(long_error.find("RAM image is " + std::to_string(image_size + 4096) + " bytes"),
            std::string::npos)
      << long_error;
  const std::string version_error = read_error(version_one);
  EXPECT_NE(version_error.find("snapshot file version 1"), std::string::npos) << version_error;
  EXPECT_NE(version_error.find("re-record the snapshot"), std::string::npos) << version_error;

  // The surgery itself is sound: a zero-length resize reads back.
  ASSERT_TRUE(WriteTraceFile(path, resized_image(0)));
  MachineConfig config;
  Snapshot read_back;
  ASSERT_TRUE(ReadSnapshotFile(path, &config, &read_back));

  // In memory: no image, or one a page short, fails before anything loads.
  std::vector<uint8_t> contents(image_size);
  snapshot.ram->CopyTo(contents.data());
  const Snapshot no_image{snapshot.state, nullptr};
  const Snapshot short_image{snapshot.state,
                             RamImage::FromBytes(contents.data(), image_size - 4096)};
  Machine target(mc);
  for (const Snapshot* damaged : {&no_image, &short_image}) {
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(target.RestoreSnapshot(*damaged));
    const std::string error = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(error.find("RAM image"), std::string::npos) << error;
    EXPECT_EQ(target.hart(0).gpr(10), 0u);  // no hart state loaded
  }
  ASSERT_TRUE(target.RestoreSnapshot(read_back));
  EXPECT_EQ(target.hart(0).gpr(10), 0xCAFEu);
  uint64_t value = 0;
  ASSERT_TRUE(target.bus().Read(mc.map.ram_base + 0x100, 8, &value));
  EXPECT_EQ(value, 0x1234'5678u);
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
